package robust

import "sync"

// Failpoints are named fault-injection sites compiled into the solve
// pipeline. In production they are disabled and a Hit call is a single
// lock-free map lookup miss; tests install handlers with SetFailpoint
// to make a chosen site panic, stall, or corrupt data in flight, which
// is how the crash-recovery and paranoid-mode properties are proved
// under -race without touching the production code paths.
//
// A handler receives the arguments the site passes to Hit — typically
// the strategy name first, so one handler can target a single
// portfolio lane — and may do anything: panic to simulate a crash,
// block to simulate a hang, or mutate a pointer argument to simulate
// an unsound result. The registry is safe for concurrent use.
var failpoints sync.Map // name -> func(args ...any)

// Failpoint names compiled into the pipeline.
const (
	// FPPortfolioLane fires at the start of every portfolio lane
	// attempt with (strategyName string) — including the one lane of
	// each single-strategy graph solve (Session.SolveGraph).
	FPPortfolioLane = "portfolio.lane"
	// FPPortfolioLaneResult fires after a lane produced its result,
	// before answer self-checking, with (strategyName string,
	// res *portfolio.Result) — mutating res simulates an unsound
	// encoding.
	FPPortfolioLaneResult = "portfolio.lane.result"
	// FPSearchProbe fires before every width-search probe with
	// (strategyName string, width int).
	FPSearchProbe = "search.minwidth.probe"
	// FPSessionSolve fires at the start of every facade Session CNF
	// solve (Session.SolveCNF) with (op string).
	FPSessionSolve = "session.solve"
	// FPShareExport fires at the start of every clause-exchange restart
	// boundary, before the lane publishes its buffered learnt clauses,
	// with (laneID int, group string). Panicking here simulates a lane
	// crashing mid-export.
	FPShareExport = "share.export"
	// FPShareImport fires for every foreign clause about to be imported,
	// with (laneID int, lits *[]sat.Lit) — mutating the slice simulates
	// a corrupted shared clause in flight.
	FPShareImport = "share.import"
	// FPServeWorker fires inside a serve worker after it dequeued a job,
	// before the solve starts, with (jobID string, shardName string).
	// Panicking here simulates a worker crashing mid-job.
	FPServeWorker = "serve.worker"
	// FPServeDequeue fires when a serve worker picks a job off its
	// shard queue, with (shardName string). Blocking here simulates a
	// stalled queue consumer.
	FPServeDequeue = "serve.dequeue"
	// FPJournalAppend fires before every journal record write, with
	// (kind string, errp *error) — setting *errp simulates a failed
	// write (disk full, I/O error) without touching the file.
	FPJournalAppend = "serve.journal.append"
	// FPJournalSync fires before every journal fsync, with
	// (kind string). Sleeping here simulates a slow or stalled disk.
	FPJournalSync = "serve.journal.sync"
)

// SetFailpoint installs (or replaces) the handler of a named
// failpoint. Tests must pair it with ClearFailpoint (t.Cleanup).
func SetFailpoint(name string, fn func(args ...any)) {
	failpoints.Store(name, fn)
}

// ClearFailpoint removes a failpoint handler.
func ClearFailpoint(name string) {
	failpoints.Delete(name)
}

// Hit triggers a failpoint: if a handler is installed for name it runs
// with args, otherwise Hit is a no-op. Panics raised by the handler
// propagate to the call site — exactly like an organic crash there.
func Hit(name string, args ...any) {
	if fn, ok := failpoints.Load(name); ok {
		fn.(func(args ...any))(args...)
	}
}
