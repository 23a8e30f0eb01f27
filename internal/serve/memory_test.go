package serve

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// maxFinishedJobHeap bounds the heap a finished job retains, averaged over
// 200 Google jobs at the default config. Measured at 80 KiB per job (task
// states with their last observations, the fitted models and the report
// state); the bound leaves 20 % headroom. A job keeps one copy of h_t, its
// node table: it read 96 KiB while every model was kept twice, as per-tree
// node slices and as the flat table compiled from them. The 167 KiB this
// once read held ~78 KiB of the propensity fit's working memory, which every
// model kept between refits until fits borrowed it from a pool; a job that
// keeps it again fails the bound, as does one that kept every checkpoint
// view it trained on.
const maxFinishedJobHeap = 96 << 10

// TestFinishedJobHoldsNoViews streams 200 Google jobs to completion and
// measures the heap the server retains per finished job after two GCs. The
// only view a job keeps is the one whose fit is pending, and a finished job
// has none.
func TestFinishedJobHoldsNoViews(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("200 NURD jobs: run without -short and -race")
	}
	const n = 200
	jobs, sims := testJobs(t, trace.DefaultGoogleConfig(42), n)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	sv := NewServer(DefaultConfig())
	for i := range jobs {
		if err := sv.StartJob(SpecFor(sims[i], uint64(i+1)), nil); err != nil {
			t.Fatal(err)
		}
		if err := ingestBatch(sv, JobEvents(jobs[i], sims[i])); err != nil {
			t.Fatal(err)
		}
	}
	if st := sv.Stats(); st.ActiveJobs != 0 || st.Jobs != n {
		t.Fatalf("%d of %d jobs still streaming", st.ActiveJobs, st.Jobs)
	}
	per := (heap() - before) / n
	runtime.KeepAlive(sv)
	runtime.KeepAlive(sims)
	t.Logf("%d KiB retained per finished job", per>>10)
	if per > maxFinishedJobHeap {
		t.Errorf("a finished job retains %d KiB, above the %d KiB bound", per>>10, maxFinishedJobHeap>>10)
	}
}
