package serve

// The durable job journal: an append-only write-ahead log that makes
// the daemon crash-only. Every accepted job is journaled (and fsynced)
// before the submit returns, every completed job's result is journaled
// before it is published, and OpenJournal replays the log on startup —
// jobs that were accepted but never finished are handed back for
// re-enqueueing, completed results are restored to the job table, and
// idempotency-key mappings survive so client retries across a crash
// stay duplicate-free.
//
// On-disk layout: a directory of sequentially numbered segment files
//
//	wal-00000001.log
//	wal-00000002.log        <- active (highest sequence number)
//
// Each segment starts with an 8-byte magic ("FPGAWAL1") and holds a
// stream of CRC-framed records:
//
//	uint32 payload length (little-endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload (JSON journalRecord)
//
// A torn tail — a record cut short by a crash mid-write, or one whose
// CRC does not match — ends the replay of that segment: everything
// before it is recovered, the damage is counted in
// serve.journal.truncated, and the startup compaction (below) rewrites
// only the good records, so the damage never survives into the new
// active segment.
//
// Recovery compacts: after replaying every segment in sequence order,
// OpenJournal writes the live state (submit records for unfinished
// jobs, done records for retained results) into a fresh segment via
// write-to-temp + rename, then deletes the old segments. A crash at
// any point mid-compaction is safe — replay is idempotent per job ID,
// so reading both the old and the new segments reconstructs the same
// state.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
)

// journalMagic heads every segment file.
const journalMagic = "FPGAWAL1"

// journalSegMax rotates the active segment once it exceeds this many
// bytes; old segments are reclaimed by the next startup compaction.
const journalSegMax = 64 << 20

// Journal record kinds.
const (
	recSubmit = "submit"
	recStart  = "start"
	recDone   = "done"
)

// journalRecord is the JSON payload of one WAL record.
type journalRecord struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Key is the job's idempotency key (submit and done records), so
	// duplicate-suppression survives a restart.
	Key string `json:"key,omitempty"`
	// Req is the original solve request (submit records) — everything
	// needed to re-create the job on replay.
	Req *SolveRequest `json:"req,omitempty"`
	// View is the completed job's result (done records).
	View *JobView  `json:"view,omitempty"`
	At   time.Time `json:"at"`
}

// RecoveredJob is one job reconstructed from the journal: View is
// non-nil for jobs that completed before the crash (restore to the job
// table), nil for accepted-but-unfinished jobs (re-enqueue).
type RecoveredJob struct {
	ID          string
	Key         string
	Req         SolveRequest
	View        *JobView
	SubmittedAt time.Time
	FinishedAt  time.Time // completion time of done jobs (zero for pending)
}

// Journal is the append side of the WAL. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	dir string
	reg *obs.Registry

	mu     sync.Mutex
	f      *os.File
	seq    int
	size   int64
	buf    []byte
	killed bool
}

// OpenJournal opens (creating if needed) the journal directory,
// replays every segment, compacts the live state into a fresh segment
// and returns the journal ready for appends plus the recovered jobs in
// submission order. The returned maxID is the largest numeric job-ID
// suffix seen, so the server's ID sequence can resume past it.
func OpenJournal(dir string, reg *obs.Registry) (*Journal, []RecoveredJob, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	j := &Journal{dir: dir, reg: reg}

	// Replay: fold every record into the per-job state, last write
	// wins. Replay is idempotent per job ID, which is what makes the
	// rename-then-delete compaction crash-safe.
	type jobState struct {
		rec    journalRecord // latest submit fields
		view   *JobView
		doneAt time.Time
		order  int
	}
	jobs := map[string]*jobState{}
	next := 0
	for _, seg := range segs {
		recs, err := replaySegment(filepath.Join(dir, seg.name), reg)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, rec := range recs {
			st, ok := jobs[rec.ID]
			if !ok {
				st = &jobState{order: next}
				next++
				jobs[rec.ID] = st
			}
			switch rec.Kind {
			case recSubmit:
				st.rec = rec
			case recDone:
				st.view = rec.View
				st.doneAt = rec.At
				if st.rec.Key == "" {
					st.rec.Key = rec.Key
				}
				if st.rec.ID == "" {
					st.rec.ID = rec.ID
				}
			}
		}
	}

	var recovered []RecoveredJob
	var maxID int64
	for id, st := range jobs {
		var n int64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > maxID {
			maxID = n
		}
		rj := RecoveredJob{ID: id, Key: st.rec.Key, View: st.view, SubmittedAt: st.rec.At, FinishedAt: st.doneAt}
		if st.rec.Req != nil {
			rj.Req = *st.rec.Req
		} else if st.view == nil {
			continue // done-less record without a request: nothing to recover
		}
		recovered = append(recovered, rj)
	}
	sort.Slice(recovered, func(a, b int) bool {
		return jobs[recovered[a].ID].order < jobs[recovered[b].ID].order
	})

	// Compact the live state into a fresh segment and drop the old
	// ones. The new segment's sequence number is past every existing
	// one, so a crash after the rename but before the deletes replays
	// old state first and the compacted state last (idempotently).
	seq := 1
	if len(segs) > 0 {
		seq = segs[len(segs)-1].seq + 1
	}
	if err := j.startSegment(seq, recovered); err != nil {
		return nil, nil, 0, err
	}
	for _, seg := range segs {
		if err := os.Remove(filepath.Join(dir, seg.name)); err != nil {
			return nil, nil, 0, fmt.Errorf("journal: removing compacted segment: %w", err)
		}
	}
	return j, recovered, maxID, nil
}

// segment is one WAL file, ordered by sequence number.
type segment struct {
	name string
	seq  int
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); err == nil {
			segs = append(segs, segment{name: e.Name(), seq: seq})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	return segs, nil
}

// replaySegment reads one segment's records, stopping (and counting a
// truncation) at the first torn or corrupted frame.
func replaySegment(path string, reg *obs.Registry) ([]journalRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(raw) < len(journalMagic) || string(raw[:len(journalMagic)]) != journalMagic {
		reg.Counter(MetricJournalTruncated).Inc()
		return nil, nil // not a WAL segment (or torn before the magic); recover nothing from it
	}
	var recs []journalRecord
	off := len(journalMagic)
	for off < len(raw) {
		if len(raw)-off < 8 {
			reg.Counter(MetricJournalTruncated).Inc()
			break
		}
		length := binary.LittleEndian.Uint32(raw[off:])
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if length > uint32(len(raw)-off-8) {
			reg.Counter(MetricJournalTruncated).Inc()
			break
		}
		payload := raw[off+8 : off+8+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			reg.Counter(MetricJournalTruncated).Inc()
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			reg.Counter(MetricJournalTruncated).Inc()
			break
		}
		recs = append(recs, rec)
		reg.Counter(MetricJournalReplayed).Inc()
		off += 8 + int(length)
	}
	return recs, nil
}

// startSegment creates the new active segment seeded with the live
// records, using write-to-temp + rename so a crash mid-compaction
// never produces a half-written active segment.
func (j *Journal) startSegment(seq int, live []RecoveredJob) error {
	name := fmt.Sprintf("wal-%08d.log", seq)
	tmp := filepath.Join(j.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(journalMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	size := int64(len(journalMagic))
	for _, rj := range live {
		var rec journalRecord
		if rj.View != nil {
			rec = journalRecord{Kind: recDone, ID: rj.ID, Key: rj.Key, View: rj.View, At: rj.FinishedAt}
		} else {
			req := rj.Req
			rec = journalRecord{Kind: recSubmit, ID: rj.ID, Key: rj.Key, Req: &req, At: rj.SubmittedAt}
		}
		n, err := writeFrame(f, nil, rec)
		if err != nil {
			f.Close()
			return err
		}
		size += n
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, name)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	active, err := os.OpenFile(filepath.Join(j.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.seq, j.size = active, seq, size
	return nil
}

// writeFrame appends one CRC-framed record and returns the bytes
// written. scratch (may be nil) is reused for the frame header.
func writeFrame(w io.Writer, scratch []byte, rec journalRecord) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	hdr := scratch
	if cap(hdr) < 8 {
		hdr = make([]byte, 8)
	}
	hdr = hdr[:8]
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return int64(8 + len(payload)), nil
}

// append writes one record, optionally fsyncing before returning; on a
// nil Journal (journaling disabled) it does nothing. After kill() or
// Close() it fails: nothing becomes durable once the "process" has
// died, and an accept path that cannot make its record durable must
// reject rather than acknowledge. (The advisory start and done writers
// ignore append errors, so wind-down stays quiet.)
func (j *Journal) append(rec journalRecord, fsync bool) error {
	if j == nil {
		return nil
	}
	var fperr error
	robust.Hit(robust.FPJournalAppend, rec.Kind, &fperr)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed || j.f == nil {
		return errors.New("journal: closed")
	}
	if fperr != nil {
		j.reg.Counter(MetricJournalErrors).Inc()
		return fmt.Errorf("journal: %w", fperr)
	}
	n, err := writeFrame(j.f, j.buf, rec)
	if err != nil {
		j.reg.Counter(MetricJournalErrors).Inc()
		return err
	}
	j.size += n
	j.reg.Counter(MetricJournalRecords).Inc()
	if fsync {
		robust.Hit(robust.FPJournalSync, rec.Kind)
		span := j.reg.StartSpan(MetricJournalFsync)
		err := j.f.Sync()
		span.End()
		if err != nil {
			j.reg.Counter(MetricJournalErrors).Inc()
			return fmt.Errorf("journal: %w", err)
		}
	}
	if j.size > journalSegMax {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked opens the next segment; the old one stays on disk until
// the next startup compaction reclaims it. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	name := fmt.Sprintf("wal-%08d.log", j.seq+1)
	f, err := os.OpenFile(filepath.Join(j.dir, name), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(journalMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	j.f.Close()
	j.f, j.seq, j.size = f, j.seq+1, int64(len(journalMagic))
	return nil
}

// kill makes every further append fail, simulating SIGKILL at the
// durability layer: records already fsynced survive, everything after
// this call is lost — exactly what a real crash loses.
func (j *Journal) kill() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killed = true
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// Close flushes and closes the active segment (orderly shutdown).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.killed {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
