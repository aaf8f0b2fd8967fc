package jsonl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// decodeJSON accepts any JSON value and records its canonical encoding.
func decodeJSON(out *[]string) Decoder {
	return func(line []byte) error {
		var v any
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		*out = append(*out, string(b))
		return nil
	}
}

// FuzzOpen feeds arbitrary file contents to Open. Open must not panic;
// it either refuses the file or leaves it made only of complete lines,
// a line-boundary prefix of the input or the input with its newline
// restored; and reopening the repaired file returns the same records
// without changing a byte.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var first []string
		l, err := Open(path, decodeJSON(&first))
		if err != nil {
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) > 0 && repaired[len(repaired)-1] != '\n' {
			t.Fatalf("repaired file %q ends in a partial line", repaired)
		}
		if !bytes.HasPrefix(data, repaired) && !bytes.Equal(repaired, append(data, '\n')) {
			t.Fatalf("repair of %q produced %q", data, repaired)
		}

		var second []string
		l, err = Open(path, decodeJSON(&second))
		if err != nil {
			t.Fatalf("reopening the repaired file: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first, second) {
			t.Fatalf("reopen returned %q, first open %q", second, first)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, repaired) {
			t.Fatalf("reopen changed the file: %q -> %q", repaired, again)
		}
	})
}
