package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, want []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the catalog %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, bf.EndToEnd)
	check("per_layer", perLayerMetrics, bf.PerLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload scaled down, untraced and traced, and
// checks that each run passes its checks and prints every metric of its
// mode with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	serveBin := filepath.Join(t.TempDir(), "caqe-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "caqe/cmd/caqe-serve").CombinedOutput(); err != nil {
		t.Fatalf("building caqe-serve: %v\n%s", err, out)
	}
	for _, w := range readBenchmarkFile(t).Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, budget: 3 * time.Second, traced: traced,
				smoke: true, serveBin: serveBin, limit: 2 * time.Second}
			o, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res := buildResult(o, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, o.problems)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", w.Name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.name)
				}
			}
		}
	}
}
