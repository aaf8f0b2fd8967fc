package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"fibersim/internal/fault"
	"fibersim/internal/jsonl"
)

// JournalSchema identifies the job-journal record layout; bump on any
// incompatible change. v2 added the optional tenant field to records —
// a compatible extension, so v1 journals (written before multi-
// tenancy) still replay: their jobs simply land in the default
// tenant's lane. New records are always written as v2.
const (
	JournalSchema   = "fibersim/job-journal/v2"
	JournalSchemaV1 = "fibersim/job-journal/v1"
)

// Record is one journal line: a job state transition. The accepted
// record carries the full Spec so replay needs nothing but the
// journal; the done record carries the Result so a restarted daemon
// can still serve completed jobs.
type Record struct {
	Schema  string  `json:"schema"`
	ID      string  `json:"id"`
	State   State   `json:"state"`
	Attempt int     `json:"attempt,omitempty"`
	Spec    *Spec   `json:"spec,omitempty"`
	Err     string  `json:"error,omitempty"`
	Result  *Result `json:"result,omitempty"`
	// UnixNanos stamps the transition (informational; replay ignores
	// it — ordering is the file order).
	UnixNanos int64 `json:"unix_ns,omitempty"`
	// TraceID, on the accepted record, links the journal to the
	// service trace that admitted the job, so post-mortem triage can
	// pair journal lines with trace exports. Informational: the trace
	// itself is in-memory and does not survive the daemon.
	TraceID string `json:"trace_id,omitempty"`
	// Tenant, on the accepted record, duplicates Spec.Tenant at the top
	// level so journal tooling (jq, the chaos smoke) can group lines by
	// tenant without digging into the spec. v2 only; absent on v1 lines.
	Tenant string `json:"tenant,omitempty"`
}

// Validate checks the invariants replay relies on.
func (r Record) Validate() error {
	if r.Schema != JournalSchema && r.Schema != JournalSchemaV1 {
		return fmt.Errorf("jobs: journal record schema %q, want %q", r.Schema, JournalSchema)
	}
	if r.ID == "" {
		return fmt.Errorf("jobs: journal record has no job id")
	}
	if !r.State.valid() {
		return fmt.Errorf("jobs: journal record %s has unknown state %q", r.ID, r.State)
	}
	if r.State == StateAccepted && r.Spec == nil {
		return fmt.Errorf("jobs: journal record %s: accepted without spec", r.ID)
	}
	return nil
}

// SyncInterval derives the journal's fsync cadence from Daly's
// checkpoint model (fault.CheckpointPolicy): the fsync is the
// "checkpoint write" (cost = writeCost), a daemon crash is the
// "failure" (rate = 1/mtbf), and the work lost to a crash is the
// un-synced journal suffix. Daly's near-optimal interval
// sqrt(2·δ·M) − δ balances fsync overhead against replayed work. A
// zero or negative mtbf — "assume the daemon can die any instant" —
// returns 0, which Journal treats as sync-every-append.
func SyncInterval(writeCost, mtbf time.Duration) time.Duration {
	if mtbf <= 0 {
		return 0
	}
	if writeCost <= 0 {
		writeCost = time.Millisecond // a conservative fsync estimate
	}
	tau := fault.OptimalInterval(writeCost.Seconds(), mtbf.Seconds())
	return time.Duration(tau * float64(time.Second))
}

// Journal is the crash-safe transition log: one JSON line per Record
// in a jsonl.Log, fsynced on a Daly-derived cadence. Terminal records
// are always synced at once: a completed job must never replay.
type Journal struct {
	mu        sync.Mutex
	log       *jsonl.Log
	path      string
	syncEvery time.Duration
	lastSync  time.Time
	dirty     bool
	now       func() time.Time
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its records and repairs a torn tail (see jsonl). syncEvery is the
// fsync cadence (see SyncInterval); 0 syncs every append.
func OpenJournal(path string, syncEvery time.Duration) (*Journal, []Record, error) {
	var recs []Record
	log, err := jsonl.Open(path, decodeRecord(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	return &Journal{log: log, path: path, syncEvery: syncEvery, now: time.Now}, recs, nil
}

// decodeRecord is the journal's jsonl.Decoder: it appends each valid
// record to recs.
func decodeRecord(recs *[]Record) jsonl.Decoder {
	return func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("not a job-journal line: %v", err)
		}
		if err := r.Validate(); err != nil {
			return err
		}
		*recs = append(*recs, r)
		return nil
	}
}

// CompactJournal rewrites the journal at path, dropping every record
// of jobs whose final state is terminal and older than retention —
// the journal's job is crash recovery, and a done/failed job settled
// long ago has nothing left to recover. Records of live (non-terminal)
// jobs are always kept, whatever their age, as are terminal jobs whose
// records carry no timestamp (age unknown — keep is the safe side).
//
// The rewrite is jsonl.Rewrite, which is atomic: a crash leaves either
// the original journal or the compacted one. When nothing would be
// dropped the file is left alone.
//
// Returns the number of jobs kept and dropped. A missing journal is
// (0, 0, nil): nothing to compact on first boot.
func CompactJournal(path string, retention time.Duration, now time.Time) (kept, dropped int, err error) {
	var recs []Record
	if err := jsonl.Load(path, decodeRecord(&recs)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("jobs: %w", err)
	}

	// A job is droppable when its last record is terminal, timestamped,
	// and at or past the retention horizon.
	last := map[string]Record{}
	for _, r := range recs {
		last[r.ID] = r
	}
	cutoff := now.Add(-retention).UnixNano()
	drop := map[string]bool{}
	for id, r := range last {
		if r.State.Terminal() && r.UnixNanos > 0 && r.UnixNanos <= cutoff {
			drop[id] = true
		}
	}
	kept, dropped = len(last)-len(drop), len(drop)
	if dropped == 0 {
		return kept, 0, nil
	}
	survivors := recs[:0]
	for _, r := range recs {
		if !drop[r.ID] {
			survivors = append(survivors, r)
		}
	}
	if err := jsonl.Rewrite(path, survivors); err != nil {
		return 0, 0, fmt.Errorf("jobs: compacting %s: %w", path, err)
	}
	return kept, dropped, nil
}

// Append writes one record and syncs according to the cadence.
// Terminal records sync unconditionally: the done/failed line is the
// exactly-once marker and must survive an immediate SIGKILL.
func (j *Journal) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return fmt.Errorf("jobs: journal %s is closed", j.path)
	}
	if err := j.log.Append(r); err != nil {
		return err
	}
	j.dirty = true
	if r.State.Terminal() || j.syncEvery <= 0 || j.now().Sub(j.lastSync) >= j.syncEvery {
		return j.syncLocked()
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.log.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.lastSync = j.now()
	return nil
}

// Sync forces any buffered cadence window to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and closes the journal; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	serr := j.syncLocked()
	cerr := j.log.Close()
	j.log = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Replay folds journal records into the jobs they describe, in first-
// appearance order. A job whose last record is terminal is returned
// as completed history; any other job was in flight when the previous
// process died and comes back in StateAccepted with Recovered set, so
// the manager re-queues it exactly once. Records for an unknown job
// id without a preceding accepted record are tolerated (the accepted
// line may have been in the torn tail) but produce no job — without a
// spec there is nothing to re-run.
func Replay(recs []Record) []*Job {
	byID := map[string]*Job{}
	var order []*Job
	for _, r := range recs {
		job := byID[r.ID]
		if job == nil {
			if r.Spec == nil {
				continue // spec lost with the torn accepted line
			}
			job = &Job{ID: r.ID, Spec: *r.Spec, TraceID: r.TraceID}
			byID[r.ID] = job
			order = append(order, job)
		}
		job.State = r.State
		if r.Attempt > 0 {
			job.Attempt = r.Attempt
		}
		job.Err = r.Err
		if r.Result != nil {
			job.Result = r.Result
		}
	}
	for _, job := range order {
		if !job.State.Terminal() {
			job.State = StateAccepted
			job.Recovered = true
		}
	}
	return order
}
