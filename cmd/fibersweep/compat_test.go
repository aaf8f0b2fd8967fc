package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The files under testdata/compat were written by the checkpoint code
// of commit 9fb68d1, before it moved onto internal/jsonl:
//
//   - sweep.state: recorded rows and the torn tail of a killed sweep;
//   - sweep.done.json: the rows that code replayed from it;
//   - sweep.appended.state: the file after it recorded compatRows.
//
// The current code must replay the same rows and write the same bytes.
var compatRows = []stateLine{
	{Key: "mvmc|a64fx|48x1|tuned", Cells: []string{"mvmc", "a64fx", "48x1", "tuned", "1.25ms", "12.5", "3.4e+03", "GB/s", "true", "7%"}},
	{Key: "ngsa|skylake|4x12|as-is", Cells: []string{"ngsa", "skylake", "4x12", "as-is", "ERROR: panic: \"x\" <&>"}},
}

// compatRun replays the checkpoint at path and records compatRows. It
// returns the replayed rows as JSON and the file after the records.
func compatRun(t *testing.T, path string) (done, appended []byte) {
	t.Helper()
	s, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if done, err = json.Marshal(s.done); err != nil {
		t.Fatal(err)
	}
	for _, r := range compatRows {
		if err := s.record(r.Key, r.Cells); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if appended, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return done, appended
}

func readCompat(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSweepStateCompatWithParentFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.state")
	if err := os.WriteFile(path, readCompat(t, "sweep.state"), 0o644); err != nil {
		t.Fatal(err)
	}
	done, appended := compatRun(t, path)
	if want := readCompat(t, "sweep.done.json"); !bytes.Equal(done, want) {
		t.Errorf("replayed rows differ:\ngot:  %s\nwant: %s", done, want)
	}
	if want := readCompat(t, "sweep.appended.state"); !bytes.Equal(appended, want) {
		t.Errorf("appended file differs:\ngot:\n%s\nwant:\n%s", appended, want)
	}
}
