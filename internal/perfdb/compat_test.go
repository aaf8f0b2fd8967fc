package perfdb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The files under testdata/compat were written by the trajectory code
// of commit 9fb68d1, before it moved onto internal/jsonl:
//
//   - bench.jsonl: appended records whose final line lost its newline;
//   - bench.records.jsonl: the records that code loaded from it;
//   - bench.appended.jsonl: the file after it appended compatAppends.
//
// The current code must load the same records and write the same
// bytes.

// compatAppends are the records appended to the fixture trajectory.
func compatAppends() []Record {
	a := rec("ccsqcd", 2.5e-3)
	a.Machine, a.Procs, a.Threads, a.Compiler = "skylake", 48, 1, "tuned"
	a.Rev, a.UnixTime, a.WallSeconds, a.AllocsPerRun = "9fb68d1", 1700000100, 0.75, 12345
	b := rec("stream", 1.0/3)
	b.SpecHash, b.Attribution = "sha256:<&>", nil
	return []Record{a, b}
}

// compatRun loads the trajectory at path and appends compatAppends. It
// returns the loaded records (one JSON line each) and the file after
// the appends.
func compatRun(t *testing.T, path string) (records, appended []byte) {
	t.Helper()
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range tr.Records {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := tr.Append(compatAppends()...); err != nil {
		t.Fatal(err)
	}
	if appended, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), appended
}

func readCompat(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTrajectoryCompatWithParentFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, readCompat(t, "bench.jsonl"), 0o644); err != nil {
		t.Fatal(err)
	}
	records, appended := compatRun(t, path)
	if want := readCompat(t, "bench.records.jsonl"); !bytes.Equal(records, want) {
		t.Errorf("loaded records differ:\ngot:\n%s\nwant:\n%s", records, want)
	}
	if want := readCompat(t, "bench.appended.jsonl"); !bytes.Equal(appended, want) {
		t.Errorf("appended file differs:\ngot:\n%s\nwant:\n%s", appended, want)
	}
}
