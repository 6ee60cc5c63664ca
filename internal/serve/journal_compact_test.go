package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Journal size-bound tests (white box): compaction keeps the file
// within -journal-max-bytes, replays to the same state as the unbounded
// journal, evicts only the oldest terminal jobs, and leaves a file the
// next openJournal call appends to cleanly.

// appendLifecycles drives jobs through submit→run→done against j.
// Job i is named j-<i> and carries a recognizable ~300-byte result.
func appendLifecycles(t *testing.T, j *journal, from, to int) {
	t.Helper()
	filler := strings.Repeat("x", 256)
	for i := from; i <= to; i++ {
		id := fmt.Sprintf("j-%03d", i)
		sub := testSubmitted(id, int64(i), "t")
		if err := j.append(sub, false); err != nil {
			t.Fatal(err)
		}
		if err := j.append(journalRecord{Type: recRunning, Time: sub.Time, ID: id}, false); err != nil {
			t.Fatal(err)
		}
		res := json.RawMessage(fmt.Sprintf(`{"schema":"aegis.job/v1","id":%q,"filler":%q}`, id, filler))
		if err := j.append(journalRecord{Type: recTerminal, Time: sub.Time, ID: id, State: StateDone, Result: res}, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCompactionBoundsSize: a bounded journal under sustained
// load compacts, stays within one record of the bound, and never loses
// an in-flight job.
func TestJournalCompactionBoundsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	const maxBytes = 8192
	j, err := openJournal(path, 0, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	var compactions, evicted int
	j.onCompact = func(before, after int64, ev int, err error) {
		if err != nil {
			t.Errorf("compaction failed: %v", err)
		}
		if after > before {
			t.Errorf("compaction grew the journal: %d -> %d bytes", before, after)
		}
		compactions++
		evicted += ev
	}

	// An in-flight job accepted first: the eviction policy must carry it
	// through every compaction — an accepted job stays a promise.
	// (Seq must be >= 1, as the server always assigns; replay skips 0.)
	run := testSubmitted("j-inflight", 999, "t")
	if err := j.append(run, false); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: recRunning, Time: run.Time, ID: "j-inflight"}, false); err != nil {
		t.Fatal(err)
	}

	appendLifecycles(t, j, 1, 60)

	if compactions == 0 {
		t.Fatalf("60 lifecycles (> %d bytes raw) never triggered compaction; size %d", maxBytes, j.Size())
	}
	if evicted == 0 {
		t.Error("bound forced no evictions despite overflow")
	}
	// Size invariant: compaction runs before the append that would cross
	// the bound, so the file never exceeds maxBytes by more than that
	// one record (well under 1 KiB here).
	if j.Size() > maxBytes+1024 {
		t.Errorf("journal size %d exceeds bound %d by more than one record", j.Size(), maxBytes)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(t, path); n > maxBytes+1024 {
		t.Errorf("file size %d exceeds bound %d by more than one record", n, maxBytes)
	}

	rep, err := replayJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Errorf("compacted journal has %d corrupt lines", rep.Skipped)
	}
	byID := map[string]*replayedJob{}
	for _, rj := range rep.Jobs {
		byID[rj.Submitted.ID] = rj
	}
	inflight, ok := byID["j-inflight"]
	if !ok {
		t.Fatal("in-flight job evicted by compaction")
	}
	if inflight.State != StateRunning {
		t.Errorf("in-flight job replayed as %q, want running", inflight.State)
	}
	// The newest terminal job always survives (eviction is oldest-first)
	// with its full result.
	last, ok := byID["j-060"]
	if !ok {
		t.Fatal("newest terminal job evicted")
	}
	if last.State != StateDone || !strings.Contains(string(last.Result), `"id":"j-060"`) {
		t.Errorf("newest job replayed as %q with result %s", last.State, last.Result)
	}
}

// TestJournalCompactionReplayEquivalence: every job the bounded journal
// retains replays to exactly the state the unbounded journal holds, and
// eviction took the oldest terminal jobs first — the survivors are a
// contiguous suffix.
func TestJournalCompactionReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	bounded, err := openJournal(filepath.Join(dir, "bounded"), 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := openJournal(filepath.Join(dir, "unbounded"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycles(t, bounded, 1, 60)
	appendLifecycles(t, unbounded, 1, 60)
	if err := bounded.close(); err != nil {
		t.Fatal(err)
	}
	if err := unbounded.close(); err != nil {
		t.Fatal(err)
	}

	repB, err := replayJournalFile(filepath.Join(dir, "bounded"))
	if err != nil {
		t.Fatal(err)
	}
	repU, err := replayJournalFile(filepath.Join(dir, "unbounded"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repU.Jobs) != 60 {
		t.Fatalf("unbounded journal replays %d jobs, want 60", len(repU.Jobs))
	}
	if len(repB.Jobs) == 0 || len(repB.Jobs) >= 60 {
		t.Fatalf("bounded journal replays %d jobs, want a proper non-empty subset", len(repB.Jobs))
	}
	full := map[string]*replayedJob{}
	for _, rj := range repU.Jobs {
		full[rj.Submitted.ID] = rj
	}
	for _, rj := range repB.Jobs {
		want, ok := full[rj.Submitted.ID]
		if !ok {
			t.Fatalf("bounded journal invented job %s", rj.Submitted.ID)
		}
		if rj.State != want.State || rj.Error != want.Error || string(rj.Result) != string(want.Result) {
			t.Errorf("job %s diverges after compaction:\n bounded:   %q %s\n unbounded: %q %s",
				rj.Submitted.ID, rj.State, rj.Result, want.State, want.Result)
		}
		if rj.Submitted.Tenant != want.Submitted.Tenant || rj.Submitted.Seq != want.Submitted.Seq {
			t.Errorf("job %s submitted record mangled: %+v", rj.Submitted.ID, rj.Submitted)
		}
	}
	// Oldest-first eviction: survivors are the most recent jobs.
	firstKept := repB.Jobs[0].Submitted.Seq
	for i, rj := range repB.Jobs {
		if rj.Submitted.Seq != firstKept+int64(i) {
			t.Fatalf("survivors are not a contiguous suffix: job %s at position %d (first kept seq %d)",
				rj.Submitted.ID, i, firstKept)
		}
	}
	if repB.Jobs[len(repB.Jobs)-1].Submitted.ID != "j-060" {
		t.Errorf("newest job missing; last survivor is %s", repB.Jobs[len(repB.Jobs)-1].Submitted.ID)
	}
}

// TestJournalCompactionThenReopen: a compacted journal is an ordinary
// journal — reopening at its replayed ValidLen and appending more work
// keeps every frame intact.
func TestJournalCompactionThenReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, err := openJournal(path, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycles(t, j, 1, 60)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	rep, err := replayJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidLen != fileLen(t, path) {
		t.Fatalf("compacted journal valid to %d of %d bytes", rep.ValidLen, fileLen(t, path))
	}

	j2, err := openJournal(path, rep.ValidLen, 8192)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycles(t, j2, 61, 80)
	if err := j2.close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := replayJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 0 {
		t.Errorf("journal reopened after compaction has %d corrupt lines", rep2.Skipped)
	}
	found := false
	for _, rj := range rep2.Jobs {
		if rj.Submitted.ID == "j-080" && rj.State == StateDone {
			found = true
		}
	}
	if !found {
		t.Error("job appended after reopen did not replay")
	}
}

// TestJournalCompactionFailureReported: a compaction that cannot create
// its temp file is logged as a warning naming the journal and the
// error, and the records whose appends triggered it are still appended
// and replay.
func TestJournalCompactionFailureReported(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "state", "journal")
	var logs bytes.Buffer
	s, err := New(Options{
		JournalPath:     path,
		JournalMaxBytes: 1024,
		Logger:          slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Move the journal's directory away: the open handle still appends
	// to the file, but the temp file compaction creates next to the
	// journal path has no directory to go in.
	moved := filepath.Join(root, "moved")
	if err := os.Rename(filepath.Dir(path), moved); err != nil {
		t.Fatal(err)
	}
	appendLifecycles(t, s.journal, 1, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := replayJournalFile(filepath.Join(moved, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 4 {
		t.Fatalf("replayed %d jobs, want all 4", len(rep.Jobs))
	}
	for _, rj := range rep.Jobs {
		if rj.State != StateDone {
			t.Errorf("job %s replayed as %q, want done", rj.Submitted.ID, rj.State)
		}
	}

	warnings := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] != "journal compaction failed" {
			continue
		}
		warnings++
		if rec["level"] != "WARN" || rec["path"] != path {
			t.Errorf("compaction failure record %v: want level WARN and path %s", rec, path)
		}
		if e, _ := rec["error"].(string); !strings.Contains(e, "journal: compact") {
			t.Errorf("compaction failure record error %q does not name the compaction", e)
		}
	}
	if warnings == 0 {
		t.Fatalf("no compaction failure logged; log:\n%s", logs.String())
	}
}
