package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The job journal makes aegisd restart-survivable (DESIGN.md §15): every
// job lifecycle transition is appended to a single JSONL file so a
// restarted daemon serves completed results byte-identically and
// re-enqueues interrupted jobs (which then resume from the shard cache)
// instead of forgetting everything it ever accepted.
//
// Framing: one record per line, `<crc32-hex> <payload-json>\n`, where the
// CRC (IEEE) covers exactly the payload bytes.  The frame is what makes
// replay after kill -9 safe: a torn tail (a final line without its
// newline) is truncated away on reopen, and a corrupted line — a CRC
// mismatch or unparseable payload — is skipped without giving up on the
// intact fully-framed records after it.
//
// Durability: every append is flushed to the OS (so a crashed *process*
// loses nothing), and terminal records additionally fsync (so a crashed
// *machine* can lose at most the queued/running tail, never a completed
// result that a client may already have observed).

// JournalSchema identifies the journal file format.  Bump the suffix on
// any backwards-incompatible change, the same discipline as aegis.job
// and aegis.shard.
const JournalSchema = "aegis.journal/v1"

// Journal record types, in lifecycle order.
const (
	recSubmitted = "submitted"
	recRunning   = "running"
	recTerminal  = "terminal"
)

// journalRecord is the payload of one framed journal line.  A submitted
// record carries the full normalized request (enough to re-run the job
// from scratch); a terminal record carries the outcome and, for done
// jobs, the marshaled aegis.job/v1 result so a restarted daemon serves
// the original bytes rather than recomputing them.
type journalRecord struct {
	// Schema is stamped on submitted records only; replay accepts files
	// whose first submitted record names a schema it speaks.
	Schema string    `json:"schema,omitempty"`
	Type   string    `json:"type"`
	Time   time.Time `json:"time"`
	ID     string    `json:"id"`

	// Submission identity (submitted records).
	Seq       int64       `json:"seq,omitempty"`
	Tenant    string      `json:"tenant,omitempty"`
	Spec      string      `json:"spec,omitempty"`
	RequestID string      `json:"request_id,omitempty"`
	Request   *JobRequest `json:"request,omitempty"`

	// Outcome (terminal records).
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// frameRecord renders one journal line: CRC frame, payload, newline.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal %s record: %w", rec.Type, err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseFrame verifies one journal line (without its newline) and
// returns its payload record.
func parseFrame(line []byte) (journalRecord, error) {
	var rec journalRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("journal: short or unframed line (%d bytes)", len(line))
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return rec, fmt.Errorf("journal: bad CRC field: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return rec, fmt.Errorf("journal: CRC mismatch: frame says %08x, payload is %08x", want, got)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("journal: unmarshal payload: %w", err)
	}
	if rec.ID == "" || rec.Type == "" {
		return rec, fmt.Errorf("journal: record missing id or type")
	}
	return rec, nil
}

// journal is the append side: an open journal file plus its write
// buffer.  Appends are serialized by mu; the Server additionally holds
// its own lock while appending submitted records so journal order
// matches submission order.
type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	// size is the journal's current byte length; maxBytes > 0 bounds it
	// via compaction (compactLocked) before an append that would exceed
	// the bound.
	size     int64
	maxBytes int64
	// onCompact, when set, observes each compaction attempt (bytes
	// before and after, terminal jobs evicted, and the error of a failed
	// one) — the Server hangs metrics and a log record off it.
	onCompact func(before, after int64, evicted int, err error)
}

// openJournal opens (creating if absent) the journal at path for
// appending, truncating a torn tail left by a crash so new records
// always start on a clean frame boundary.  maxBytes > 0 enables the
// size bound (see compactLocked); 0 means unbounded.
func openJournal(path string, validLen, maxBytes int64) (*journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{path: path, f: f, w: bufio.NewWriter(f), size: validLen, maxBytes: maxBytes}, nil
}

// append writes one framed record.  Every record is flushed to the OS
// before append returns; sync additionally fsyncs — pass true for
// terminal records so a completed result survives machine failure.
// With a size bound configured, an append that would push the journal
// past it triggers a compaction first; the record is then written
// regardless — the bound sheds history, never promises.
func (j *journal) append(rec journalRecord, sync bool) error {
	line, err := frameRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if j.maxBytes > 0 && j.size > 0 && j.size+int64(len(line)) > j.maxBytes {
		// A failed compaction must not lose the record: it is reported
		// and the append goes on to the uncompacted file.
		before := j.size
		evicted, err := j.compactLocked()
		if j.onCompact != nil {
			j.onCompact(before, j.size, evicted, err)
		}
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	j.size += int64(len(line))
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Size reports the journal's current byte length.
func (j *journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// compactLocked rewrites the journal to the minimal record set that
// replays to the same state: per job, its original submitted record,
// a running record if it was dispatched, and its terminal record (with
// the result bytes for done jobs) — dropping every superseded or
// corrupted line accumulated along the way.  If the live state alone
// still exceeds the bound, the oldest terminal jobs are evicted (their
// shard-cache entries survive, so resubmitting the spec is cheap);
// in-flight jobs are never evicted — an accepted job stays a promise.
//
// The rewrite goes through a temp file, fsync and rename, so a crash at
// any point leaves either the old journal or the complete new one —
// never a torn hybrid.  It returns the number of terminal jobs evicted.
// Callers hold j.mu.
func (j *journal) compactLocked() (evicted int, err error) {
	if err := j.w.Flush(); err != nil {
		return 0, fmt.Errorf("journal: compact flush: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("journal: compact seek: %w", err)
	}
	rep, err := replayJournal(j.f)
	if err != nil {
		// Reposition for appends whatever happened.
		j.f.Seek(0, io.SeekEnd) //nolint:errcheck
		return 0, fmt.Errorf("journal: compact replay: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return 0, fmt.Errorf("journal: compact seek: %w", err)
	}

	// Render each job's minimal record set.
	type jobLines struct {
		lines    []byte
		terminal bool
	}
	rendered := make([]jobLines, 0, len(rep.Jobs))
	var total int64
	for _, rj := range rep.Jobs {
		var buf bytes.Buffer
		sub, err := frameRecord(rj.Submitted)
		if err != nil {
			return 0, err
		}
		buf.Write(sub)
		switch {
		case rj.Terminal():
			term, err := frameRecord(journalRecord{
				Type:   recTerminal,
				Time:   rj.FinishedAt,
				ID:     rj.Submitted.ID,
				State:  rj.State,
				Error:  rj.Error,
				Result: rj.Result,
			})
			if err != nil {
				return 0, err
			}
			buf.Write(term)
		case rj.State == StateRunning:
			run, err := frameRecord(journalRecord{Type: recRunning, Time: rj.Submitted.Time, ID: rj.Submitted.ID})
			if err != nil {
				return 0, err
			}
			buf.Write(run)
		}
		rendered = append(rendered, jobLines{lines: buf.Bytes(), terminal: rj.Terminal()})
		total += int64(buf.Len())
	}

	// Evict oldest terminal jobs while the live state alone overflows
	// the bound.  In-flight jobs always survive.
	for i := 0; total > j.maxBytes && i < len(rendered); i++ {
		if !rendered[i].terminal {
			continue
		}
		total -= int64(len(rendered[i].lines))
		rendered[i].lines = nil
		evicted++
	}

	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact*")
	if err != nil {
		return 0, fmt.Errorf("journal: compact: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	for _, jl := range rendered {
		if _, err := tmp.Write(jl.lines); err != nil {
			cleanup()
			return 0, fmt.Errorf("journal: compact write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, fmt.Errorf("journal: compact fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return 0, fmt.Errorf("journal: compact rename: %w", err)
	}
	// Swap the open handle onto the new file.
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("journal: compact reopen: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return 0, fmt.Errorf("journal: compact reopen seek: %w", err)
	}
	j.f.Close() //nolint:errcheck // old inode is unlinked; nothing left to lose
	j.f = nf
	j.w = bufio.NewWriter(nf)
	j.size = total
	return evicted, nil
}

// close flushes and closes the journal file.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// replayedJob is one job reconstructed from the journal: its submitted
// record plus the latest lifecycle state the journal reached.  A job
// whose last record is submitted or running was in flight when the
// daemon died; the Server re-enqueues it (the shard cache makes the
// rerun cheap and byte-identical).
type replayedJob struct {
	Submitted journalRecord
	// State is the job's last journaled state: StateQueued, StateRunning
	// or a terminal state.
	State string
	// Error and Result come from the terminal record, if any, and
	// FinishedAt is that record's timestamp.
	Error      string
	Result     json.RawMessage
	FinishedAt time.Time
}

// Terminal reports whether the journal saw the job finish.
func (r *replayedJob) Terminal() bool { return isTerminal(r.State) }

// journalReplay is the outcome of scanning a journal file.
type journalReplay struct {
	// Jobs holds every replayed job in submission order.
	Jobs []*replayedJob
	// MaxSeq is the highest submission sequence number seen; the Server
	// resumes numbering above it so restart never reuses a job ID.
	MaxSeq int64
	// ValidLen is the byte offset after the last fully-framed line;
	// openJournal truncates the file here before appending.
	ValidLen int64
	// Skipped counts corrupted interior lines (CRC mismatch, bad
	// payload) that were dropped without aborting the replay.
	Skipped int
}

// replayJournal scans framed records from r.  It never fails on
// malformed content — corruption costs at most the damaged records: a
// torn final line is excluded from ValidLen, and a corrupted interior
// line is skipped while every intact fully-framed record around it is
// still recovered.  Records are folded per job ID in file order, so the
// last record wins (a duplicate running record after a restart is
// harmless).
func replayJournal(r io.Reader) (*journalReplay, error) {
	rep := &journalReplay{}
	jobs := map[string]*replayedJob{}
	br := bufio.NewReader(r)
	var offset int64
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// A final line without its newline is a torn tail from a
			// crash mid-append: everything before it is intact.
			if err == io.EOF {
				return rep, nil
			}
			return rep, fmt.Errorf("journal: read: %w", err)
		}
		offset += int64(len(line))
		rec, perr := parseFrame(bytes.TrimSuffix(line, []byte("\n")))
		// The line is fully framed by its newline either way; corrupted
		// content is skipped, not treated as end-of-journal, so one
		// flipped bit cannot erase the records behind it.
		rep.ValidLen = offset
		if perr != nil {
			rep.Skipped++
			continue
		}
		switch rec.Type {
		case recSubmitted:
			if rec.Request == nil || rec.Seq <= 0 {
				rep.Skipped++
				continue
			}
			if rec.Seq > rep.MaxSeq {
				rep.MaxSeq = rec.Seq
			}
			if _, dup := jobs[rec.ID]; dup {
				rep.Skipped++
				continue
			}
			rj := &replayedJob{Submitted: rec, State: StateQueued}
			jobs[rec.ID] = rj
			rep.Jobs = append(rep.Jobs, rj)
		case recRunning:
			if rj, ok := jobs[rec.ID]; ok && !rj.Terminal() {
				rj.State = StateRunning
			} else {
				rep.Skipped++
			}
		case recTerminal:
			rj, ok := jobs[rec.ID]
			if !ok || !isTerminal(rec.State) {
				rep.Skipped++
				continue
			}
			rj.State = rec.State
			rj.Error = rec.Error
			rj.Result = rec.Result
			rj.FinishedAt = rec.Time
		default:
			rep.Skipped++
		}
	}
}

// replayJournalFile replays the journal at path.  A missing file is an
// empty journal, not an error — first boot and restart share one code
// path.
func replayJournalFile(path string) (*journalReplay, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &journalReplay{}, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return replayJournal(f)
}
