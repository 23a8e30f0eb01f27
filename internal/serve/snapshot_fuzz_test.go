package serve

// FuzzSnapshotRestore covers RestoreServer's decode surface: a snapshot is a
// wire dump, and every frame of it goes through the one spec/event/drop
// applier recovery uses. The invariants: no panic on any input, and restore
// yields a server or an error, never a half-built registry whose budget
// disagrees with its jobs.

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

func FuzzSnapshotRestore(f *testing.F) {
	// Tiny seed: two three-task jobs, the first dropped, under the cheap
	// flag-all predictor, so each exec costs a decode and a few applies, and
	// minimizing a mutation takes few executions.
	sv := durable(f, cheapCfg(2))
	for id := uint64(1); id <= 2; id++ {
		sp := wire.JobSpec{JobID: id, Schema: []string{"cpu", "mem"}, NumTasks: 3, TauStra: 10,
			StragglerQuantile: 0.9, Horizon: 10, Checkpoints: 4, WarmFrac: 0.2, Seed: id}
		if err := sv.StartJob(sp, nil); err != nil {
			f.Fatal(err)
		}
		for tid := 0; tid < sp.NumTasks; tid++ {
			evs := []wire.Event{
				{Kind: wire.EventTaskStart, JobID: id, TaskID: tid, Time: float64(tid)},
				{Kind: wire.EventHeartbeat, JobID: id, TaskID: tid, Time: float64(tid) + 0.5, Tick: 1, Features: []float64{1, 2}},
				{Kind: wire.EventTaskFinish, JobID: id, TaskID: tid, Time: float64(tid) + 3, Latency: 3},
			}
			if err := ingestBatch(sv, evs); err != nil {
				f.Fatal(err)
			}
		}
		if err := finishJob(sv, id, 20); err != nil {
			f.Fatal(err)
		}
	}
	if err := sv.DropJob(1); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	enc := snap.Bytes()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[len(enc)/3:])
	mut := append([]byte(nil), enc...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := cheapCfg(1)
		cfg.MaxTasks = 1 << 12 // hostile-but-valid specs fail typed, not by allocating
		restored, err := RestoreServer(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		if restored == nil {
			t.Fatal("RestoreServer returned nil server with nil error")
		}
		jobs, _ := restored.Budget()
		if got := len(restored.JobIDs()); jobs != int64(got) {
			t.Fatalf("job budget %d, %d jobs registered", jobs, got)
		}
	})
}
