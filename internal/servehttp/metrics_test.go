package servehttp

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wire"
)

// scrape GETs /metrics and parses the exposition: each metric's TYPE and
// value. It fails on a sample without HELP and TYPE lines before it, on a
// name emitted twice and on a value that does not parse.
func scrape(t *testing.T, ts *httptest.Server) (kinds map[string]string, values map[string]float64) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: %s, Content-Type %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	kinds, values = map[string]string{}, map[string]float64{}
	helped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 4 && f[0] == "#" && f[1] == "HELP":
			helped[f[2]] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			kinds[f[2]] = f[3]
		case len(f) == 2:
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil || !helped[f[0]] || kinds[f[0]] == "" {
				t.Fatalf("sample %q: value error %v, HELP %v, TYPE %q", sc.Text(), err, helped[f[0]], kinds[f[0]])
			}
			if _, dup := values[f[0]]; dup {
				t.Fatalf("%s emitted twice", f[0])
			}
			values[f[0]] = v
		default:
			t.Fatalf("line %q is not exposition format", sc.Text())
		}
	}
	return kinds, values
}

// statsFields counts the leaf fields of serve.Stats, descending into its
// nested structs (Overload, WAL).
func statsFields(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		ft := t.Field(i).Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			n += statsFields(ft)
		} else {
			n++
		}
	}
	return n
}

// TestMetricsTableMatchesEmitted: GET /metrics on a logging, rate-limited
// server emits one metric per Stats field, and README's "Metrics" table
// lists exactly that set with the same types; a server without a log emits
// none of the WAL's. The counters agree with GET /stats.
func TestMetricsTableMatchesEmitted(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 1, 61)
	sv := durable(t, serve.Config{Shards: 2, ClientRate: 1e6})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	if resp, res := postIngest(t, ts, wireBody(t, []wire.JobSpec{serve.SpecFor(sims[0], 5)}, serve.JobEvents(jobs[0], sims[0]))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s (%s)", resp.Status, res.Error)
	}
	st := drained(t, sv)
	kinds, values := scrape(t, ts)

	if want := statsFields(reflect.TypeOf(serve.Stats{})); len(kinds) != want || len(metrics) != want {
		t.Errorf("%d metrics emitted, %d declared, for %d Stats fields", len(kinds), len(metrics), want)
	}
	for name, want := range map[string]float64{
		"nurd_jobs":                float64(st.Jobs),
		"nurd_events_total":        float64(st.Events),
		"nurd_refits_total":        float64(st.Refits),
		"nurd_refit_seconds_total": st.RefitTotal.Seconds(),
		"nurd_wal_appends_total":   float64(st.WAL.Appends),
		"nurd_wal_next_lsn":        float64(st.WAL.NextLSN),
	} {
		if values[name] != want {
			t.Errorf("%s = %v, /stats says %v", name, values[name], want)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Metrics\n")
	if !ok {
		t.Fatal(`README has no "### Metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	listed := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`nurd_") {
			continue
		}
		listed[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
	}
	if !reflect.DeepEqual(listed, kinds) {
		t.Errorf("README lists\n %v\nGET /metrics emits\n %v", listed, kinds)
	}

	plain := httptest.NewServer(NewHandler(serve.NewServer(servetest.CheapConfig(1))))
	defer plain.Close()
	plainKinds, _ := scrape(t, plain)
	for name := range plainKinds {
		if strings.HasPrefix(name, "nurd_wal_") {
			t.Errorf("a server without a log emits %s", name)
		}
	}
	if len(plainKinds) == 0 {
		t.Error("a server without a log emits nothing")
	}
}
