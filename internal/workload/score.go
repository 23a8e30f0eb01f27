package workload

// score.go closes the quality-vs-load loop: after a load run, the jobs the
// server completed can be scored against the workload's retained
// ground-truth straggler labels — the same final accounting the offline
// evaluation applies — so a deliberately shedding run can be compared to an
// unshedded one in accuracy terms, not just latency terms. Shedding drops
// heartbeat observations, never finish labels, so the bound the overload
// scenario gates on is "macro F1 within epsilon of the unshedded run", not
// "identical verdicts".

import (
	"fmt"

	"repro/internal/metrics"
)

// JobScore is one completed job's accuracy against ground truth.
type JobScore struct {
	F1        float64
	Confusion metrics.Confusion
}

// ScoreJobs fetches every completed job's report from tgt and scores
// its terminated set against wl.Truth. Jobs that are unknown (dropped, or
// their registration was throttled away), still streaming, or failed are
// skipped — accuracy is only defined over completed runs. The result maps
// job ID to its score.
func ScoreJobs(tgt *HTTPTarget, wl *Workload) (map[uint64]JobScore, error) {
	scores := make(map[uint64]JobScore, len(wl.Truth))
	for id, truth := range wl.Truth {
		rep, err := tgt.Report(id)
		if err != nil {
			return nil, fmt.Errorf("workload: report for job %d: %w", id, err)
		}
		if rep == nil || !rep.Done || rep.Failed {
			continue
		}
		c := rep.Confusion(truth)
		scores[id] = JobScore{F1: c.F1(), Confusion: c}
	}
	return scores, nil
}

// MacroF1 averages per-job F1 over the given job IDs (typically the
// intersection of two runs' completed sets). Returns 0 for an empty set.
func MacroF1(scores map[uint64]JobScore, ids []uint64) float64 {
	if len(ids) == 0 {
		return 0
	}
	var sum float64
	for _, id := range ids {
		sum += scores[id].F1
	}
	return sum / float64(len(ids))
}

// CommonJobs lists the job IDs present in both score maps, the comparable
// population for an accuracy delta between two runs.
func CommonJobs(a, b map[uint64]JobScore) []uint64 {
	var out []uint64
	for id := range a {
		if _, ok := b[id]; ok {
			out = append(out, id)
		}
	}
	return out
}
