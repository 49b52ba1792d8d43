package serve

// Concurrency tests of the job table: submits, key lookups, cap
// eviction and retention GC all racing under -race.

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// doneJob builds a completed job for table tests.
func doneJob(id, key string, finished time.Time) *Job {
	j := &Job{ID: id, key: key, done: make(chan struct{})}
	j.view = JobView{ID: id, State: StateDone}
	j.finished = finished
	close(j.done)
	return j
}

func TestJobTableAddOrGetDedupes(t *testing.T) {
	tab := jobTable{byID: map[string]*Job{}, byKey: map[string]*Job{}}
	first := doneJob("j1", "k", time.Now())
	if got, dup := tab.addOrGet(first, 0); dup || got != first {
		t.Fatalf("first addOrGet: dup=%v", dup)
	}
	second := doneJob("j2", "k", time.Now())
	got, dup := tab.addOrGet(second, 0)
	if !dup || got != first {
		t.Fatalf("second addOrGet with same key: dup=%v got=%s, want duplicate of j1", dup, got.ID)
	}
	if _, ok := tab.get("j2"); ok {
		t.Error("losing duplicate was still registered by ID")
	}
}

func TestJobTableRemoveUnbindsKey(t *testing.T) {
	tab := jobTable{byID: map[string]*Job{}, byKey: map[string]*Job{}}
	j := doneJob("j1", "k", time.Now())
	tab.addOrGet(j, 0)
	tab.remove(j)
	if _, ok := tab.get("j1"); ok {
		t.Error("removed job still resolvable by ID")
	}
	if _, ok := tab.getByKey("k"); ok {
		t.Error("removed job still resolvable by key")
	}
	if tab.len() != 0 {
		t.Errorf("table length %d after remove, want 0", tab.len())
	}
}

func TestJobTableGCUnbindsKeys(t *testing.T) {
	tab := jobTable{byID: map[string]*Job{}, byKey: map[string]*Job{}}
	old := doneJob("j1", "k1", time.Now().Add(-time.Hour))
	fresh := doneJob("j2", "k2", time.Now())
	tab.addOrGet(old, 0)
	tab.addOrGet(fresh, 0)
	tab.gc(time.Now().Add(-time.Minute), 0)
	if _, ok := tab.getByKey("k1"); ok {
		t.Error("retention GC left the evicted job's key bound")
	}
	if _, ok := tab.getByKey("k2"); !ok {
		t.Error("retention GC unbound a live job's key")
	}
}

// TestJobTableGCRace races concurrent adds (with cap eviction), key
// lookups, explicit removes and retention GC passes; -race is the
// assertion, plus the invariant that every surviving key maps to a
// registered job.
func TestJobTableGCRace(t *testing.T) {
	tab := jobTable{byID: map[string]*Job{}, byKey: map[string]*Job{}}
	const (
		writers       = 4
		jobsPerWriter = 200
		maxJobs       = 64
	)
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < jobsPerWriter; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				key := fmt.Sprintf("k%d-%d", w, i%50) // keys collide across iterations
				// Half the jobs are already stale, so the retention pass
				// below always has something to cut.
				fin := time.Now()
				if i%2 == 0 {
					fin = fin.Add(-time.Hour)
				}
				j, dup := tab.addOrGet(doneJob(id, key, fin), maxJobs)
				if dup {
					// The key's previous holder won; it may have been GCed
					// by now, which is fine — just exercise the lookup.
					tab.getByKey(key)
				} else if i%17 == 0 {
					tab.remove(j)
				}
			}
		}(w)
	}

	// The janitor hammers retention + cap GC until the writers finish.
	stop := make(chan struct{})
	janitorDone := make(chan struct{})
	go func() {
		defer close(janitorDone)
		for {
			select {
			case <-stop:
				return
			default:
				tab.gc(time.Now().Add(-time.Minute), maxJobs)
				tab.len()
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	<-janitorDone

	// Final sweep, then check the key index is consistent with the ID
	// index: every bound key resolves to a registered job.
	tab.gc(time.Now().Add(-time.Minute), maxJobs)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if len(tab.byID) > maxJobs {
		t.Errorf("table holds %d jobs, cap is %d", len(tab.byID), maxJobs)
	}
	for key, j := range tab.byKey {
		if tab.byID[j.ID] != j {
			t.Errorf("key %s maps to unregistered job %s", key, j.ID)
		}
	}
}
