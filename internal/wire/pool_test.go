package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// TestNextIntoMatchesNext pins the pooled decode path to the allocating
// one (next, in wire_test.go): same dump, element by element, identical specs and events — the only
// difference is the provenance tag.
func TestNextIntoMatchesNext(t *testing.T) {
	specs, events := goldenElements()
	var dump bytes.Buffer
	if err := WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}

	plain := NewReader(bytes.NewReader(dump.Bytes()))
	pooled := NewReader(bytes.NewReader(dump.Bytes()))
	var ev Event
	for n := 0; ; n++ {
		wantSp, wantEv, wantErr := next(plain)
		gotSp, gotErr := pooled.NextInto(&ev)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("element %d: Next err %v, NextInto err %v", n, wantErr, gotErr)
		}
		if wantErr == io.EOF {
			return
		}
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		if (wantSp == nil) != (gotSp == nil) {
			t.Fatalf("element %d: spec/event disagreement", n)
		}
		if wantSp != nil {
			if !reflect.DeepEqual(*wantSp, *gotSp) {
				t.Fatalf("element %d: spec mismatch\n next    %+v\n nextInto %+v", n, *wantSp, *gotSp)
			}
			continue
		}
		if !ev.Pooled && ev.Features != nil {
			t.Fatalf("element %d: NextInto event with features not pool-tagged", n)
		}
		got := ev
		got.Pooled = false
		if !reflect.DeepEqual(*wantEv, got) {
			t.Fatalf("element %d: event mismatch\n next    %+v\n nextInto %+v", n, *wantEv, got)
		}
		// Settle ownership exactly like an ingest loop that did not retain
		// the event, so the next decode may legally reuse the slice.
		if ev.Pooled && ev.Features != nil {
			PutObservation(ev.Features)
		}
		ev = Event{}
	}
}

// TestObservationPoolBounds pins the pool's self-protection: zero-capacity
// slices are dropped, oversized ones are not retained, and a recycled
// buffer is reissued at the requested length.
func TestObservationPoolBounds(t *testing.T) {
	PutObservation(nil) // must not panic or pool a useless entry
	big := make([]float64, MaxPooledObs+1)
	PutObservation(big) // over the cap: dropped
	s := make([]float64, 8, 16)
	for i := range s {
		s[i] = float64(i)
	}
	PutObservation(s)
	got := GetObservation(12)
	if len(got) != 12 {
		t.Fatalf("GetObservation(12) returned len %d", len(got))
	}
	got2 := GetObservation(64)
	if len(got2) != 64 {
		t.Fatalf("GetObservation(64) returned len %d", len(got2))
	}
}
