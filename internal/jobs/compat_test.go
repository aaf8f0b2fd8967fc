package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The files under testdata/compat were written by the journal code of
// commit 9fb68d1, before the journal moved onto internal/jsonl:
//
//   - journal.jsonl: v1 lines, v2 lines and a torn tail, as a v1 daemon
//     upgraded to v2 and then killed mid-write leaves them;
//   - journal.records.jsonl: the records that code replayed from it;
//   - journal.appended.jsonl: the file after it appended compatAppends;
//   - journal.compacted.jsonl: that file after CompactJournal at
//     compatNow with compatRetention.
//
// The current code must replay the same records and write the same
// bytes.
var (
	compatNow       = time.Unix(1700100000, 0)
	compatRetention = 24 * time.Hour
)

// compatAppends are the records appended to the fixture journal.
func compatAppends() []Record {
	recent := compatNow.Add(-time.Hour).UnixNano()
	return []Record{
		{Schema: JournalSchema, ID: "job-000004", State: StateRunning, Attempt: 2, UnixNanos: recent},
		{Schema: JournalSchema, ID: "job-000004", State: StateDone, Attempt: 2,
			Result: &Result{TimeSeconds: 0.0123, GFlops: 1.5e3, Verified: true}, UnixNanos: recent},
		{Schema: JournalSchema, ID: "job-000005", State: StateAccepted, UnixNanos: recent,
			Spec:    &Spec{App: "ngsa", Machine: "skylake", Procs: 2, Threads: 4, Size: "test", Fault: "noise=5us:1us", Tenant: "bob<&>"},
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Tenant: "bob<&>"},
		{Schema: JournalSchema, ID: "job-000005", State: StateFailed, Attempt: 1, Err: "panic: \"quoted\"\n", UnixNanos: recent},
	}
}

// compatRun replays the journal at path, appends compatAppends and
// compacts it. It returns the replayed records (one JSON line each),
// the file after the appends and the file after compaction.
func compatRun(t *testing.T, path string) (records, appended, compacted []byte) {
	t.Helper()
	j, recs, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	appendAll(t, j, compatAppends()...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if appended, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompactJournal(path, compatRetention, compatNow); err != nil {
		t.Fatal(err)
	}
	if compacted, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), appended, compacted
}

func readCompat(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJournalCompatWithParentFixture(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, readCompat(t, "journal.jsonl"), 0o644); err != nil {
		t.Fatal(err)
	}
	records, appended, compacted := compatRun(t, path)
	for _, c := range []struct {
		name string
		got  []byte
	}{
		{"journal.records.jsonl", records},
		{"journal.appended.jsonl", appended},
		{"journal.compacted.jsonl", compacted},
	} {
		if want := readCompat(t, c.name); !bytes.Equal(c.got, want) {
			t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", c.name, c.got, want)
		}
	}
}
