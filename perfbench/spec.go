package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark itself reads: the
// metrics each kind of run must print, with their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// emit copies the declared metrics from measured into res, in
// declaration order. A declared metric the run did not measure is an
// error: the benchmark and its declaration disagree.
func emit(res *result, declared []specMetric, measured map[string]float64) error {
	for _, d := range declared {
		v, ok := measured[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		res.add(d.Name, v, d.Unit)
	}
	return nil
}
