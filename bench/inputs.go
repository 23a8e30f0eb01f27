package main

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// cutTick splits every job's stream: phase A is everything before the first
// event with Tick > cutTick, phase B the rest. At tick 3 of 10 a model has
// been published and most tasks are still running, so the query sweep
// between the phases exercises model prediction, not just lookups.
const cutTick = 3

// pinnedFingerprints records the FNV-64a of the wire-encoded stream (every
// job's registration and events, in feed order) that specs/mixed.json
// becomes under a seed. A mismatch means the parent and the change would be
// fed different traffic, so the run refuses to measure.
var pinnedFingerprints = map[uint64]uint64{
	42: 0xdf40e050366da46b,
	43: 0x17f3036cad640dc4,
}

// job is one synthesized job: its registration, its ordered event stream
// split at cut, and the ground truth its final report is scored against.
type job struct {
	rank   int // arrival rank in the corpus: the same job under every seed
	spec   wire.JobSpec
	events []wire.Event
	cut    int
	truth  []bool
	// query is the whole-job GET /query URL (tasks=0..N-1).
	query *url.URL
}

// inputs is everything a run derives from (spec file, seed).
type inputs struct {
	seed        uint64
	jobs        []job // largest first, then by arrival
	events      int
	fingerprint uint64
	synthesize  time.Duration
}

// loadInputs expands the spec file into the jobs a run feeds.
//
// The spec's own seed field fixes the corpus: which jobs exist, their sizes,
// features, latencies and ground truth. The run's seed decides how that
// corpus meets the server: which ID each job registers under (and with it
// its shard and WAL stream) and each job's predictor seed. The feed order is
// by size, then arrival, under every seed, so that crash_recover's every
// third job is the same jobs. Trace content is deliberately not redrawn per
// seed: with 30 jobs it moved events/s by 7 % and recovery speed by 14 %
// between seeds (a job's makespan hangs on its slowest task, and the
// makespan sets how many rows every checkpoint view holds), five times the
// box's own run-to-run noise, and macro F1 by 6 % — a ruler that coarse
// cannot hold a 10 % bound, let alone a quality bound.
func loadInputs(specPath string, seed uint64) (*inputs, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	ws, err := workload.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	wl, err := workload.Synthesize(ws)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, synthesize: time.Since(t0), events: wl.Events}

	// Renumber: arrival rank i registers as job ids[i].
	rng := stats.NewRNG(seed)
	ids := rng.Perm(wl.Jobs)
	byID := make(map[uint64]*job, wl.Jobs)
	for i := range wl.Items {
		it := &wl.Items[i]
		if it.Malformed() {
			return nil, fmt.Errorf("spec %s injects malformed frames; the benchmark's operations must not fail", ws.Name)
		}
		if it.Spec != nil {
			j := &job{rank: int(it.Spec.JobID), spec: *it.Spec, truth: wl.Truth[it.Spec.JobID]}
			j.spec.JobID = uint64(ids[it.Spec.JobID-1]) + 1
			j.spec.Seed = rng.Uint64()
			byID[it.Spec.JobID] = j
			continue
		}
		j := byID[it.Event.JobID]
		ev := *it.Event
		ev.JobID = j.spec.JobID
		j.events = append(j.events, ev)
	}
	for _, j := range byID {
		j.cut = len(j.events)
		for i := range j.events {
			if j.events[i].Tick > cutTick {
				j.cut = i
				break
			}
		}
		j.query = queryURL(j.spec.JobID, j.spec.NumTasks)
		in.jobs = append(in.jobs, *j)
	}
	sort.Slice(in.jobs, func(a, b int) bool {
		ja, jb := &in.jobs[a].spec, &in.jobs[b].spec
		if ja.NumTasks != jb.NumTasks {
			return ja.NumTasks > jb.NumTasks
		}
		return in.jobs[a].rank < in.jobs[b].rank
	})

	h := fnv.New64a()
	var buf []byte
	for i := range in.jobs {
		j := &in.jobs[i]
		if buf, err = wire.EncodeSpec(buf[:0], j.spec); err != nil {
			return nil, err
		}
		for k := range j.events {
			if buf, err = wire.EncodeEvent(buf, j.events[k]); err != nil {
				return nil, err
			}
		}
		h.Write(buf)
	}
	in.fingerprint = h.Sum64()
	if want, ok := pinnedFingerprints[seed]; ok && ws.Name == "mixed" && want != in.fingerprint {
		return nil, fmt.Errorf("inputs changed: seed %d gives fingerprint %016x, pinned %016x", seed, in.fingerprint, want)
	}
	return in, nil
}

func queryURL(jobID uint64, numTasks int) *url.URL {
	ids := make([]string, numTasks)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	return &url.URL{Path: "/query", RawQuery: "job=" + strconv.FormatUint(jobID, 10) + "&tasks=" + strings.Join(ids, ",")}
}

// frames per POST /ingest body on the wire workload.
const bodyFrames = 256

// body is one pre-encoded POST /ingest request.
type body struct {
	data          []byte
	specs, events int
	want          string // the handler's 200 response
}

// encodeReplicas pre-encodes every job's stream `replicas` times under
// disjoint job IDs, in bodies on each side of the cut.
func encodeReplicas(in *inputs, replicas int) ([]unit, error) {
	out := make([]unit, 0, replicas*len(in.jobs))
	for r := 0; r < replicas; r++ {
		for bi := range in.jobs {
			j := &in.jobs[bi]
			id := uint64(r*len(in.jobs)) + j.spec.JobID
			u := unit{base: bi, id: id, query: queryURL(id, j.spec.NumTasks)}
			sp := j.spec
			sp.JobID = id
			var err error
			if u.a, err = encodeBodies(&sp, id, j.events[:j.cut]); err != nil {
				return nil, err
			}
			if u.b, err = encodeBodies(nil, id, j.events[j.cut:]); err != nil {
				return nil, err
			}
			out = append(out, u)
		}
	}
	return out, nil
}

func encodeBodies(sp *wire.JobSpec, id uint64, events []wire.Event) ([]body, error) {
	var out []body
	cur := body{data: wire.AppendHeader(nil)}
	var err error
	if sp != nil {
		if cur.data, err = wire.EncodeSpec(cur.data, *sp); err != nil {
			return nil, err
		}
		cur.specs = 1
	}
	flush := func() {
		cur.want = fmt.Sprintf("{\"specs\":%d,\"events\":%d}\n", cur.specs, cur.events)
		out = append(out, cur)
		cur = body{data: wire.AppendHeader(nil)}
	}
	for i := range events {
		if cur.specs+cur.events == bodyFrames {
			flush()
		}
		ev := events[i]
		ev.JobID = id
		if cur.data, err = wire.EncodeEvent(cur.data, ev); err != nil {
			return nil, err
		}
		cur.events++
	}
	if cur.specs+cur.events > 0 {
		flush()
	}
	return out, nil
}
