package workload

// synth.go expands a WorkloadSpec into a concrete send timeline. The
// expansion is two-phase so job identity is stable: phase one draws every
// client's arrival times and per-job shape parameters (task count, target
// makespan, profile, seeds) using one RNG per client — adding or reordering
// clients never disturbs another client's stream — and phase two sorts the
// merged arrivals, assigns job IDs in arrival order, and generates each
// job's content (trace tasks, simulator schedule, serve spec, lifecycle
// events) as one run of items already in send order; the timeline is the
// merge of those runs. Event times inside a job stay job-relative (the
// serving clock is per-job virtual time); the timeline's send schedule is
// absolute: item.At = job arrival + event's job-relative time.

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Item is one schedulable wire element of a synthesized workload.
type Item struct {
	// At is the element's absolute send time in virtual seconds from
	// scenario start.
	At float64
	// Client indexes the originating ClientSpec. Elements of one client are
	// delivered in timeline order over one ordered lane; distinct clients
	// are independent.
	Client int
	// Spec or Event is set, never both.
	Spec  *wire.JobSpec
	Event *wire.Event
	// CorruptXOR, when nonzero, marks a hostile frame: after wire-encoding,
	// the payload byte at offset CorruptPos (mod payload length) is XORed
	// with it, breaking the frame CRC deterministically.
	CorruptXOR byte
	CorruptPos uint32
}

// Malformed reports whether the item is a hostile-injection frame.
func (it *Item) Malformed() bool { return it.CorruptXOR != 0 }

// Workload is a fully synthesized scenario: the timeline the open-loop
// driver fires and the element counts its report is judged against.
type Workload struct {
	// Spec is the scenario this workload was synthesized from.
	Spec *WorkloadSpec
	// Items is the merged send timeline in ascending At order (stable:
	// a job's spec precedes its events, per-job event order is preserved).
	Items []Item
	// Jobs counts synthesized jobs (= spec registrations).
	Jobs int
	// Events counts well-formed event frames.
	Events int
	// Malformed counts hostile-injected (deliberately corrupt) frames.
	Malformed int
	// Span is the timeline's extent: the last item's At, in virtual seconds.
	Span float64
	// Truth maps job ID -> per-task ground-truth straggler labels (true
	// latency >= the job's tau_stra), retained from synthesis so a load run
	// can be scored for accuracy — e.g. comparing macro F1 with and without
	// load shedding — against the same labels the offline evaluation uses.
	Truth map[uint64][]bool
}

// arrival is one phase-one record: everything about a job except its
// content.
type arrival struct {
	at      float64
	client  int
	seq     int
	ntasks  int
	dur     float64
	profile trace.Profile
	genSeed uint64 // trace content
	preSeed uint64 // predictor seed carried in the serve spec
	corSeed uint64 // malformed-frame injection draws
}

// Synthesize expands the spec into a deterministic workload. The result
// depends only on (spec, spec.Seed): same inputs, byte-identical timeline,
// regardless of GOMAXPROCS or prior RNG use.
func Synthesize(ws *WorkloadSpec) (*Workload, error) {
	wl, runs, err := synthesizeRuns(ws)
	if err != nil {
		return nil, err
	}
	wl.Items = serve.MergeRuns(runs, func(a, b *Item) bool { return a.At < b.At })
	wl.Span = wl.Items[len(wl.Items)-1].At
	return wl, nil
}

// synthesizeRuns is Synthesize before the merge: the workload without its
// Items, and one run of items per job in arrival order. A job's run is in
// ascending At: its spec at arrival, then its events in stream order (event
// times are non-negative), each corrupted copy right behind its clean item
// at the same At.
func synthesizeRuns(ws *WorkloadSpec) (*Workload, [][]Item, error) {
	if err := ws.Validate(); err != nil {
		return nil, nil, err
	}
	mode := trace.ModeGoogle
	if ws.Trace == "alibaba" {
		mode = trace.ModeAlibaba
	}

	// Phase one: per-client arrival draws.
	var arrivals []arrival
	for ci := range ws.Clients {
		c := &ws.Clients[ci]
		// One independent stream per client, derived from (scenario seed,
		// client index) so clients never share draws.
		rng := stats.NewRNG(ws.Seed + uint64(ci)*0x9e3779b97f4a7c15)
		times := drawArrivals(rng, &c.Arrival, ws.Duration)
		for seq, at := range times {
			a := arrival{
				at:      at,
				client:  ci,
				seq:     seq,
				ntasks:  clampTasks(c.JobTasks.Sample(rng)),
				dur:     c.JobDuration.Sample(rng),
				profile: trace.ProfileNear,
				genSeed: rng.Uint64(),
				preSeed: rng.Uint64(),
				corSeed: rng.Uint64(),
			}
			if rng.Bernoulli(c.FarFraction) {
				a.profile = trace.ProfileFar
			}
			if a.dur <= 0 {
				a.dur = 1
			}
			arrivals = append(arrivals, a)
		}
	}
	if len(arrivals) == 0 {
		return nil, nil, fmt.Errorf("workload: %s: no arrivals in %v virtual seconds (rates too low)", ws.Name, ws.Duration)
	}
	// (client, seq) is unique, so this order is total and needs no
	// stability.
	slices.SortFunc(arrivals, func(a, b arrival) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.client, b.client); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})

	// Phase two: generate content in arrival order. Job IDs are 1-based
	// arrival ranks, so a scenario's job IDs are stable and human-readable.
	wl := &Workload{Spec: ws, Truth: make(map[uint64][]bool, len(arrivals))}
	runs := make([][]Item, len(arrivals))
	for rank, a := range arrivals {
		id := uint64(rank + 1)
		job, err := trace.GenJob(mode, id, a.genSeed, a.ntasks, a.profile)
		if err != nil {
			return nil, nil, err
		}
		// Rescale the job's virtual timeline so its makespan equals the
		// drawn target duration. Scaling every start and latency together
		// preserves the protocol structure exactly (checkpoint gating,
		// straggler sets, feature vectors are untouched) — the same trick
		// the serving tests use to shrink real jobs into test time.
		if c := a.dur / job.Makespan(); c > 0 && !math.IsInf(c, 0) {
			for i := range job.Tasks {
				job.Tasks[i].Start *= c
				job.Tasks[i].Latency *= c
			}
		}
		sim, err := simulator.New(job, simulator.DefaultConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("workload: %s: job %d: %w", ws.Name, id, err)
		}
		sp := serve.SpecFor(sim, a.preSeed)
		if err := sp.Validate(); err != nil {
			return nil, nil, err
		}
		events := serve.JobEvents(job, sim)

		spec := sp // heap copy per job; items alias it
		run := make([]Item, 0, 1+len(events))
		run = append(run, Item{At: a.at, Client: a.client, Spec: &spec})
		wl.Jobs++
		truth := make([]bool, len(job.Tasks))
		for i := range job.Tasks {
			truth[i] = job.Tasks[i].Latency >= sp.TauStra
		}
		wl.Truth[id] = truth
		crng := stats.NewRNG(a.corSeed)
		mrate := ws.Clients[a.client].MalformedRate
		for i := range events {
			it := Item{At: a.at + events[i].Time, Client: a.client, Event: &events[i]}
			run = append(run, it)
			wl.Events++
			if mrate > 0 && crng.Bernoulli(mrate) {
				// Malformed injection is an OVERLAY: a corrupted COPY rides
				// alongside the clean frame, which still goes out. Corrupting
				// the original instead would silently delete protocol-required
				// events (a lost TaskSubmit turns the job's later TaskFinish
				// into a legitimate 422), so the front end's rejections could
				// never be separated from the injection's collateral damage.
				bad := it
				bad.CorruptXOR = byte(1 + crng.Intn(255))
				bad.CorruptPos = uint32(crng.Uint64())
				run = append(run, bad)
				wl.Malformed++
			}
		}
		runs[rank] = run
	}
	return wl, runs, nil
}

// clampTasks rounds a job-size draw into the supported task-count range.
func clampTasks(v float64) int {
	n := int(math.Round(v))
	if n < MinJobTasks {
		return MinJobTasks
	}
	if n > MaxJobTasks {
		return MaxJobTasks
	}
	return n
}

// drawArrivals generates one client's arrival times in [0, horizon).
func drawArrivals(rng *stats.RNG, a *ArrivalSpec, horizon float64) []float64 {
	mod := func(t float64) float64 {
		m := 1.0
		for _, rc := range a.Curve {
			m += rc.Amp * math.Sin(2*math.Pi*t/rc.Period+rc.Phase)
		}
		return math.Max(0, m)
	}
	modMax := 1.0
	for _, rc := range a.Curve {
		modMax += math.Abs(rc.Amp)
	}

	var out []float64
	switch a.Process {
	case ArrivalConstant:
		// Deterministic arrivals integrating the rate curve: the next
		// arrival lands when the integrated rate accumulates one unit.
		// Forward-Euler with the local interarrival step is exact for a
		// flat curve and a fine approximation for the gentle diurnal
		// shapes scenarios use.
		t := 0.0
		for t < horizon {
			r := a.Rate * mod(t)
			if r <= 1e-9 {
				// Rate curve bottomed out: skip forward until it recovers.
				t += 1 / (a.Rate * modMax)
				continue
			}
			t += 1 / r
			if t < horizon {
				out = append(out, t)
			}
		}
	case ArrivalPoisson, ArrivalBursty:
		// Lewis thinning against the envelope rate. Bursty is a Poisson
		// process whose rate is additionally multiplied inside ON windows.
		factor := 1.0
		var bursts []burstWindow
		if a.Process == ArrivalBursty {
			factor = a.BurstFactor
			bursts = drawBursts(rng, a, horizon)
		}
		envelope := a.Rate * modMax * factor
		t := 0.0
		for {
			t += rng.Exponential(envelope)
			if t >= horizon {
				break
			}
			r := a.Rate * mod(t)
			if a.Process == ArrivalBursty && !inBurst(bursts, t) {
				// Outside a burst the envelope overshoots by factor.
			} else {
				r *= factor
			}
			if rng.Float64()*envelope < r {
				out = append(out, t)
			}
		}
	}
	return out
}

// burstWindow is one ON interval of the bursty arrival process.
type burstWindow struct{ from, to float64 }

// drawBursts samples the ON windows ahead of time: onset gaps are
// exponential with mean BurstEvery, each window lasts BurstLen.
func drawBursts(rng *stats.RNG, a *ArrivalSpec, horizon float64) []burstWindow {
	var out []burstWindow
	t := rng.Exponential(1 / a.BurstEvery)
	for t < horizon {
		out = append(out, burstWindow{from: t, to: t + a.BurstLen})
		t += a.BurstLen + rng.Exponential(1/a.BurstEvery)
	}
	return out
}

func inBurst(ws []burstWindow, t float64) bool {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

// AppendItemWire appends the item's wire frame to dst. When hostile is true
// and the item is flagged malformed, the encoded frame's payload is
// deterministically corrupted (CRC breaks; length prefix stays intact, so a
// reader rejects the frame as corrupt without desynchronizing).
func AppendItemWire(dst []byte, it *Item, hostile bool) ([]byte, error) {
	base := len(dst)
	var err error
	if it.Spec != nil {
		dst, err = wire.EncodeSpec(dst, *it.Spec)
	} else {
		dst, err = wire.EncodeEvent(dst, *it.Event)
	}
	if err != nil {
		return dst, err
	}
	if hostile && it.Malformed() {
		// Frame layout: kind:u8 len:u32 payload crc:u32. Corrupt a payload
		// byte only — the reader must fail the CRC, not misparse the length.
		const frameHead = 5
		payload := len(dst) - base - frameHead - 4
		if payload > 0 {
			dst[base+frameHead+int(it.CorruptPos)%payload] ^= it.CorruptXOR
		}
	}
	return dst, nil
}

// WriteWire streams the workload as one wire dump in timeline order: the
// stream header followed by every item's frame. With hostile=false the
// injection overlay is dropped entirely and the dump is clean — fully
// replayable via nurdserve -replay / POST /ingest. With hostile=true the overlay's
// frames are included, corrupted exactly as the open-loop driver would send
// them; such a dump is for determinism checks and front-end hardening tests,
// not for replay.
func (wl *Workload) WriteWire(w io.Writer, hostile bool) error {
	buf := wire.AppendHeader(nil)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var err error
	for i := range wl.Items {
		it := &wl.Items[i]
		if it.Malformed() && !hostile {
			continue
		}
		buf, err = AppendItemWire(buf[:0], it, hostile)
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
