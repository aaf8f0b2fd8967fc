// Package jsonl is the one crash-safe append-only log behind the job
// journal (internal/jobs), the benchmark trajectory (internal/perfdb)
// and fibersweep's -resume checkpoint. Its crash contract:
//
//   - Each record is appended as its JSON line plus '\n' in a single
//     write, so a newline-terminated line is complete.
//   - A newline-terminated line the caller's decoder rejects means the
//     file is not this kind of log: an error naming path:line.
//   - A final fragment without its newline is what a crash mid-write
//     leaves. If the decoder accepts it, only the newline was lost: the
//     record is kept and the newline restored. Anything else is
//     truncated away, so the next append starts on a line boundary.
//   - A write that fails part-way is rolled back; if that is impossible
//     the Log refuses appends until the file is reopened (and repaired).
//   - Rewrite replaces a log atomically (temp file, fsync, rename,
//     directory fsync).
//
// Callers decide what a record is and when to fsync. No clock is read.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Decoder accepts one trimmed, non-blank line. It must leave no trace
// of a line it rejects: Open also offers it the newline-less final
// fragment, and a rejected fragment is dropped.
type Decoder func(line []byte) error

// file is the subset of *os.File a Log writes through; tests substitute
// a file whose writes fail part-way.
type file interface {
	io.Writer
	io.Seeker
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is a JSONL file open for appending. It is not safe for concurrent
// use; callers serialise Append, Sync and Close.
type Log struct {
	f    file
	path string
	// broken is set when a failed write left a fragment that could not
	// be rolled back; Append then refuses until the file is reopened.
	broken error
}

// Open opens the log at path for appending, creating it if absent. It
// hands every complete line to decode in file order and repairs a torn
// tail as the package contract says, reading the file once.
func Open(path string, decode Decoder) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := replay(f, path, decode, true); err != nil {
		_ = f.Close() // the replay error is the one worth reporting
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// Load replays the log at path like Open, then closes it. A missing
// file is an error wrapping fs.ErrNotExist, not created. A file that
// cannot be opened for writing (a read-only checkout) is still replayed,
// read-only: its torn tail is tolerated in memory and left on disk.
func Load(path string, decode Decoder) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	repair := err == nil
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if f, err = os.Open(path); err != nil {
			return err
		}
	}
	defer f.Close()
	return replay(f, path, decode, repair)
}

// replay reads f whole, decodes its lines and, when repair is set,
// heals or truncates a newline-less final fragment.
func replay(f *os.File, path string, decode Decoder, repair bool) error {
	var buf bytes.Buffer // sized up front: one read, no regrowth
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	data := buf.Bytes()
	start := 0
	for lineno := 1; ; lineno++ {
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 {
			break
		}
		if line := bytes.TrimSpace(data[start : start+end]); len(line) > 0 {
			if err := decode(line); err != nil {
				return fmt.Errorf("%s:%d: %w", path, lineno, err)
			}
		}
		start += end + 1
	}
	tail := bytes.TrimSpace(data[start:])
	keep := len(tail) > 0 && decode(tail) == nil
	var err error
	switch {
	case !repair || start == len(data):
	case keep: // whole record, lost only its newline
		_, err = f.Write([]byte{'\n'})
	default:
		err = f.Truncate(int64(start))
	}
	if err != nil {
		return fmt.Errorf("%s: repairing torn tail: %w", path, err)
	}
	return nil
}

// Append marshals v and writes it plus '\n' in one write. It does not
// sync; call Sync for durability.
func (l *Log) Append(v any) error {
	if l.broken != nil {
		return l.broken
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	n, err := l.f.Write(append(b, '\n'))
	if err != nil && n > 0 {
		l.broken = l.rollback(n, err)
	}
	return err
}

// rollback removes the n-byte fragment a failed write left at the end
// of the file. It returns nil on success, or the error Append reports
// from now on: it truncates only if the fragment still ends the file,
// since another handle's later line must not be cut.
func (l *Log) rollback(n int, werr error) error {
	end, err := l.f.Seek(0, io.SeekCurrent)
	if err == nil {
		var fi fs.FileInfo
		if fi, err = l.f.Stat(); err == nil && fi.Size() == end {
			if err = l.f.Truncate(end - int64(n)); err == nil {
				return nil
			}
		}
	}
	return fmt.Errorf("jsonl: %s: a failed append (%v) left a partial line; reopen the log to repair it", l.path, werr)
}

// Sync commits every appended line to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// AppendFile appends recs to the log at path, creating it if absent,
// through a fresh O_APPEND handle that it syncs and closes. It does not
// read the file, so several processes may append to one log at once:
// each line lands whole.
func AppendFile[T any](path string, recs ...T) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l := &Log{f: f, path: path}
	for i := 0; i < len(recs) && err == nil; i++ {
		err = l.Append(recs[i])
	}
	return syncClose(f, err)
}

// Rewrite atomically replaces the log at path with recs: they go to
// path+".compact", which is fsynced and renamed over path, and then the
// directory is fsynced so the rename survives a crash too. A crash
// before the rename leaves path untouched and a stale temp file that
// the next Rewrite overwrites.
func Rewrite[T any](path string, recs []T) error {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < len(recs) && err == nil; i++ {
		var b []byte
		if b, err = json.Marshal(recs[i]); err == nil {
			_, err = w.Write(append(b, '\n'))
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err := syncClose(f, err); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync() // best effort: some filesystems refuse a directory fsync
		_ = dir.Close()
	}
	return nil
}

// syncClose finishes a written file: unless err is already set, it
// syncs f; it always closes f. It returns the first error.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
