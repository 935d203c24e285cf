package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// testScale shrinks every measured horizon so each repetition takes a
// fraction of a second.
const testScale = 0.05

func runScaled(t *testing.T, def *workloadDef, seed uint64, workers int, traced bool) *outcome {
	t.Helper()
	c := config{seed: seed, workers: workers, scale: testScale}
	if traced {
		c.rec = newRecorder()
	}
	o, err := execute(def, c)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// summaryMetrics returns the metrics of a result's JSON summary line.
func summaryMetrics(t *testing.T, res *result, traced bool) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var buf bytes.Buffer
	if err := res.summaryLine(&buf, traced); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("summary line %s", buf.Bytes())
	}
	return line.Metrics
}

func TestWorkloads(t *testing.T) {
	e2e, layer := contract(t)
	if !sameKeys(e2e, endToEnd) || !sameKeys(layer, perLayer) {
		t.Fatalf("BENCHMARK.json declares %v and %v; the benchmark reports %v and %v",
			e2e, layer, endToEnd, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			plain := runScaled(t, def, 1, 1, false)
			traced := runScaled(t, def, 1, 2, true)
			if plain.Digest != traced.Digest {
				t.Errorf("digest at 1 worker untraced %s != 2 workers traced %s", plain.Digest, traced.Digest)
			}
			if o := runScaled(t, def, 1, 2, false); o.Digest != plain.Digest {
				t.Errorf("digest at 2 workers %s != 1 worker %s", o.Digest, plain.Digest)
			}
			if o := runScaled(t, def, 2, 2, false); o.Digest == plain.Digest {
				t.Errorf("seeds 1 and 2 share digest %s", o.Digest)
			}
			for _, o := range []*outcome{plain, traced} {
				for _, m := range slices.Concat(o.Host, o.Sim, o.Layers) {
					if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
						t.Errorf("bad metric name or unit %q %q", m.Name, m.Unit)
					}
				}
			}
			res := &result{def: def, plain: []*outcome{plain}, traced: []*outcome{traced}}
			for traced, want := range map[bool]map[string]string{false: e2e, true: layer} {
				got := summaryMetrics(t, res, traced)
				for name, unit := range want {
					if m, ok := got[name]; !ok || m.Unit != unit {
						t.Errorf("summary (traced %v) reports %s as %+v, want unit %s", traced, name, m, unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("summary (traced %v) has %d metrics, want %d", traced, len(got), len(want))
				}
			}
		})
	}
}

func sameKeys(m map[string]string, names []string) bool {
	if len(m) != len(names) {
		return false
	}
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return false
		}
	}
	return true
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.median and statistics.quantiles(range(1, 11), n=4).
	med, q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 5.5 2.75 8.25", med, q1, q3)
	}
	if med, q1, q3 = quartiles([]float64{4, 1, 3}); med != 3 || q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v, want 3 1 4", med, q1, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 1000; v++ {
		h.add(0) // calls below the clock's resolution count too
		h.add(time.Duration(v) * time.Microsecond)
	}
	if h.n != 2000 {
		t.Fatalf("n = %d", h.n)
	}
	if got := h.quantile(0.75); got < 0.97*500e3 || got > 1.03*500e3 {
		t.Fatalf("p75 = %v, want about 500µs", got)
	}
}
