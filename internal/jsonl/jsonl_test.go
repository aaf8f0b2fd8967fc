package jsonl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N int `json:"n"`
}

// decodeRecs is a strict Decoder: a line must be a rec with n > 0.
func decodeRecs(out *[]int) Decoder {
	return func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.N <= 0 {
			return fmt.Errorf("n=%d not positive", r.N)
		}
		*out = append(*out, r.N)
		return nil
	}
}

func tmpLog(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reopen opens path, returns its records and closes it again.
func reopen(t *testing.T, path string) []int {
	t.Helper()
	var got []int
	l, err := Open(path, decodeRecs(&got))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestOpenCreatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var got []int
	l, err := Open(path, decodeRecs(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %v", got)
	}
	for n := 1; n <= 3; n++ {
		if err := l.Append(rec{n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n" {
		t.Fatalf("file = %q", s)
	}
	if got := reopen(t, path); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("replayed %v", got)
	}
}

// TestOpenTornTail covers the shapes a file's end can take.
func TestOpenTornTail(t *testing.T) {
	for _, tc := range []struct {
		name, content, want string
		recs                string
	}{
		{"garbage fragment truncated", "{\"n\":1}\n{\"n\":", "{\"n\":1}\n", "[1]"},
		{"whole record keeps its line", "{\"n\":1}\n{\"n\":2}", "{\"n\":1}\n{\"n\":2}\n", "[1 2]"},
		{"rejected record truncated", "{\"n\":1}\n{\"n\":0}", "{\"n\":1}\n", "[1]"},
		{"blank fragment truncated", "{\"n\":1}\n  ", "{\"n\":1}\n", "[1]"},
		{"blank lines skipped", "\n  \n{\"n\":1}\n\n", "\n  \n{\"n\":1}\n\n", "[1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpLog(t, tc.content)
			var got []int
			l, err := Open(path, decodeRecs(&got))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != tc.recs {
				t.Fatalf("records %v, want %s", got, tc.recs)
			}
			if s := readFile(t, path); s != tc.want {
				t.Fatalf("repaired file %q, want %q", s, tc.want)
			}
			// The next append starts on a line boundary.
			if err := l.Append(rec{9}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want := strings.TrimSuffix(tc.recs, "]") + " 9]"
			if got := reopen(t, path); fmt.Sprint(got) != want {
				t.Fatalf("after append: %v, want %s", got, want)
			}
		})
	}
}

func TestOpenMalformedTerminatedLine(t *testing.T) {
	path := tmpLog(t, "{\"n\":1}\n\n{\"n\":0}\n{\"n\":3}\n")
	content := readFile(t, path)
	var got []int
	_, err := Open(path, decodeRecs(&got))
	if err == nil || !strings.Contains(err.Error(), path+":3: n=0 not positive") {
		t.Fatalf("err = %v, want the decode error at %s:3", err, path)
	}
	if readFile(t, path) != content {
		t.Fatal("a refused file was modified")
	}
}

func TestLoad(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent")
	var got []int
	if err := Load(missing, decodeRecs(&got)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load(missing) = %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("Load created a missing log")
	}

	path := tmpLog(t, "{\"n\":1}\n{\"n\":2}")
	if err := Load(path, decodeRecs(&got)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" || readFile(t, path) != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("Load: records %v, file %q", got, readFile(t, path))
	}
}

func TestLoadReadOnlyLeavesFileAlone(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores file modes; read-only fallback untestable")
	}
	raw := "{\"n\":1}\n{\"n\":"
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(raw), 0o444); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := Load(path, decodeRecs(&got)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1]" || readFile(t, path) != raw {
		t.Fatalf("read-only Load: records %v, file %q", got, readFile(t, path))
	}
}

// shortFile is a file whose next write fails after writing half its
// bytes, as when the disk fills mid-write.
type shortFile struct {
	*os.File
	failNext bool
	truncErr error  // returned by Truncate when set
	after    func() // runs right after the failing write, when set
}

func (f *shortFile) Write(b []byte) (int, error) {
	if !f.failNext {
		return f.File.Write(b)
	}
	f.failNext = false
	n, _ := f.File.Write(b[:len(b)/2])
	if f.after != nil {
		f.after()
	}
	return n, errors.New("no space left on device")
}

func (f *shortFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.File.Truncate(size)
}

// TestShortWriteRollsBack: a write that fails part-way is truncated
// away, so the next append lands on a line boundary and the file
// reopens with every record that was written in full.
func TestShortWriteRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var none []int
	l, err := Open(path, decodeRecs(&none))
	if err != nil {
		t.Fatal(err)
	}
	sf := &shortFile{File: l.f.(*os.File)}
	l.f = sf
	if err := l.Append(rec{1}); err != nil {
		t.Fatal(err)
	}
	sf.failNext = true
	if err := l.Append(rec{2}); err == nil {
		t.Fatal("the failing write reported success")
	}
	if err := l.Append(rec{3}); err != nil {
		t.Fatalf("append after a rolled-back write: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "{\"n\":1}\n{\"n\":3}\n" {
		t.Fatalf("file = %q", s)
	}
	if got := reopen(t, path); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("reopened %v, want [1 3]", got)
	}
}

// TestShortWriteRefusesUntilReopen: when the fragment cannot be rolled
// back, appends are refused rather than glued onto it, and reopening
// repairs the file.
func TestShortWriteRefusesUntilReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var none []int
	l, err := Open(path, decodeRecs(&none))
	if err != nil {
		t.Fatal(err)
	}
	sf := &shortFile{File: l.f.(*os.File), truncErr: errors.New("truncate refused")}
	l.f = sf
	if err := l.Append(rec{1}); err != nil {
		t.Fatal(err)
	}
	sf.failNext = true
	if err := l.Append(rec{2}); err == nil {
		t.Fatal("the failing write reported success")
	}
	err = l.Append(rec{3})
	if err == nil || !strings.Contains(err.Error(), "reopen the log") {
		t.Fatalf("append after an unrepaired fragment = %v, want refusal", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopen(t, path); fmt.Sprint(got) != "[1]" {
		t.Fatalf("reopened %v, want [1]", got)
	}
	if s := readFile(t, path); s != "{\"n\":1}\n" {
		t.Fatalf("repaired file = %q", s)
	}
}

func TestAppendFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := AppendFile(path, rec{1}, rec{2}); err != nil {
		t.Fatal(err)
	}
	if err := AppendFile(path, rec{3}); err != nil {
		t.Fatal(err)
	}
	if got := reopen(t, path); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("records %v", got)
	}
}

func TestRewrite(t *testing.T) {
	path := tmpLog(t, "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n")
	// Debris of a rewrite that crashed before its rename.
	if err := os.WriteFile(path+".compact", []byte("{\"n\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rewrite(path, []rec{{1}, {3}}); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "{\"n\":1}\n{\"n\":3}\n" {
		t.Fatalf("rewritten file = %q", s)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
}

// TestShortWriteKeepsOtherWritersLine: when another handle has appended
// after the fragment, rolling back would cut that line, so the Log
// leaves the file alone and refuses further appends instead.
func TestShortWriteKeepsOtherWritersLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var none []int
	l, err := Open(path, decodeRecs(&none))
	if err != nil {
		t.Fatal(err)
	}
	sf := &shortFile{File: l.f.(*os.File), failNext: true, after: func() {
		if err := AppendFile(path, rec{7}); err != nil {
			t.Error(err)
		}
	}}
	l.f = sf
	if err := l.Append(rec{1}); err == nil {
		t.Fatal("the failing write reported success")
	}
	if err := l.Append(rec{2}); err == nil || !strings.Contains(err.Error(), "reopen the log") {
		t.Fatalf("append after an unrepairable fragment = %v, want refusal", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); !strings.HasSuffix(s, "{\"n\":7}\n") {
		t.Fatalf("the other writer's line was cut: %q", s)
	}
}
