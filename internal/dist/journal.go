package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/watch"
)

// The coordinator journal is an append-only JSONL file recording the
// durable campaign state: one "campaign" record written at startup
// (the spec, for sanity-checking a resume) and one "report" record
// per completed rank (the rank's final report, coverage, and trace
// lane). In-flight state — leases, partial frontier contents, cache
// entries — is deliberately NOT journaled: leases are re-established
// by worker heartbeats and batches after a restart, frontier contents
// are restored by the batch publisher's delta resync, and
// the plan cache is a pure memoization whose loss costs only repeated
// solves, never a trajectory change. A restarted coordinator with
// -resume therefore converges to the same merged report as one that
// never crashed.
//
// Compaction keeps resume O(live state): the live state is exactly
// the campaign record plus the last report record per rank, so once
// the file grows past a threshold (re-runs appending onto the same
// path, duplicate redeliveries) the journal rewrites itself down to
// those records via tmp-file + fsync + rename. The on-disk format is
// unchanged — a compacted journal replays through the same reader.

// defaultCompactBytes is the journal size that triggers a compaction
// check when CoordConfig.CompactBytes is zero.
const defaultCompactBytes = 1 << 20

// journalRecord is one JSONL line. Kind selects which payload fields
// are meaningful.
type journalRecord struct {
	Kind string `json:"kind"` // "campaign" | "report" | "alert"

	// kind == "campaign"
	CampaignID string        `json:"campaign_id,omitempty"`
	Name       string        `json:"name,omitempty"`
	Spec       *CampaignSpec `json:"spec,omitempty"`

	// kind == "report"
	Rank     int          `json:"rank,omitempty"`
	Report   *core.Report `json:"report,omitempty"`
	Coverage *CovWire     `json:"coverage,omitempty"`
	Events   []obs.Event  `json:"events,omitempty"`

	// kind == "alert" — a watch-engine alert raised against this
	// campaign. Alerts are durable: a resumed coordinator re-seeds its
	// health engine from them so the same condition deduplicates
	// instead of re-raising, and re-folds them into the fresh trace.
	Alert *watch.Alert `json:"alert,omitempty"`
}

// journal is the append side. Writes are fsynced per record — rank
// completion is rare (once per rank per campaign), so durability is
// cheap here and it is exactly the state a crash must not lose. The
// journal mirrors its own live state (last campaign record, last
// report per rank) so it can compact without re-reading the file.
type journal struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	size      int64
	compactAt int64

	campaign *journalRecord
	reports  map[int]*journalRecord
	// alerts are live records in append order: every alert ID is part
	// of the campaign's durable state (dedup across restarts), so
	// compaction keeps them all.
	alerts []*journalRecord
}

func openJournal(path string, compactBytes int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: open journal: %w", err)
	}
	j := &journal{path: path, f: f, compactAt: compactBytes, reports: map[int]*journalRecord{}}
	if j.compactAt == 0 {
		j.compactAt = defaultCompactBytes
	}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	return j, nil
}

// seed installs the live state recovered by replayJournal so the
// first compaction after a resume preserves the replayed records.
// Safe on nil state (cold start).
func (j *journal) seed(st *journalState) {
	if j == nil || st == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if st.Spec != nil {
		j.campaign = &journalRecord{Kind: "campaign", CampaignID: st.CampaignID, Name: st.Name, Spec: st.Spec}
	}
	//fuzzvet:ordered — map-to-map copy, insertion order irrelevant
	for rank, rec := range st.Reports {
		j.reports[rank] = rec
	}
	for i := range st.Alerts {
		a := st.Alerts[i]
		j.alerts = append(j.alerts, &journalRecord{Kind: "alert", Alert: &a})
	}
}

func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("dist: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal sync: %w", err)
	}
	j.size += int64(len(data))
	switch rec.Kind {
	case "campaign":
		j.campaign = &rec
	case "report":
		r := rec
		j.reports[rec.Rank] = &r
	case "alert":
		r := rec
		j.alerts = append(j.alerts, &r)
	}
	return j.maybeCompactLocked()
}

// maybeCompactLocked rewrites the journal down to its live records
// once the file passes the compaction threshold and the live state is
// at most half the file (otherwise compaction would barely shrink
// it, so the threshold is doubled instead of re-checking every
// append). Called with j.mu held.
func (j *journal) maybeCompactLocked() error {
	if j.compactAt < 0 || j.size < j.compactAt {
		return nil
	}
	var live [][]byte
	var liveSize int64
	add := func(rec *journalRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		live = append(live, data)
		liveSize += int64(len(data))
		return nil
	}
	if j.campaign != nil {
		if err := add(j.campaign); err != nil {
			return err
		}
	}
	ranks := make([]int, 0, len(j.reports))
	for rank := range j.reports {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		if err := add(j.reports[rank]); err != nil {
			return err
		}
	}
	for _, rec := range j.alerts {
		if err := add(rec); err != nil {
			return err
		}
	}
	if j.size <= 2*liveSize {
		j.compactAt = 2 * j.size
		return nil
	}

	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dist: journal compact: %w", err)
	}
	for _, line := range live {
		if _, err := f.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("dist: journal compact write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: journal compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: journal compact close: %w", err)
	}
	// Rename-over is atomic: a crash leaves either the old journal or
	// the compacted one, both of which replay to the same live state.
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: journal compact rename: %w", err)
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dist: journal reopen after compact: %w", err)
	}
	old.Close()
	j.f = nf
	j.size = liveSize
	return nil
}

func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// journalState is what replay recovers.
type journalState struct {
	CampaignID string
	Name       string
	Spec       *CampaignSpec
	Reports    map[int]*journalRecord // rank -> last report record
	Alerts     []watch.Alert          // journaled alerts, append order, ID-deduped
}

// replayJournal loads a journal written by a previous coordinator
// incarnation. The reader is tolerant: a trailing torn line (the
// crash interrupting a write) is skipped, and a later record for the
// same rank wins. A missing file yields an empty state, so -resume
// against a fresh path degrades to a cold start.
func replayJournal(path string) (*journalState, error) {
	st := &journalState{Reports: make(map[int]*journalRecord)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: open journal for replay: %w", err)
	}
	defer f.Close()
	seenAlerts := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn or corrupt line — almost certainly the write the
			// crash interrupted. Skip it; the worker will redeliver.
			continue
		}
		switch rec.Kind {
		case "campaign":
			st.CampaignID = rec.CampaignID
			st.Name = rec.Name
			st.Spec = rec.Spec
		case "report":
			if rec.Report != nil && rec.Coverage != nil {
				r := rec
				st.Reports[rec.Rank] = &r
			}
		case "alert":
			if rec.Alert != nil && rec.Alert.ID != "" && !seenAlerts[rec.Alert.ID] {
				seenAlerts[rec.Alert.ID] = true
				st.Alerts = append(st.Alerts, *rec.Alert)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dist: journal replay: %w", err)
	}
	return st, nil
}

// LoadJournalSpec reads just the campaign identity out of a journal
// file — what a fleet coordinator needs to re-admit a campaign from
// its journal directory on resume. Returns a nil spec when the file
// is missing or holds no campaign record.
func LoadJournalSpec(path string) (*CampaignSpec, string, error) {
	st, err := replayJournal(path)
	if err != nil {
		return nil, "", err
	}
	return st.Spec, st.Name, nil
}
