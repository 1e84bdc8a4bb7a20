package main

import "encoding/json"

// runSeconds is how long one run of the benchmark measures.
const runSeconds = 15

// describe renders BENCHMARK.json from the harness's own tables, so the
// file at the root of the repository cannot drift from what the
// harness prints (a unit test compares the two).
func describe() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, workloadEntry{name, w.spec().why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
