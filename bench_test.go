// Package e2edt's root benchmark regenerates the paper's evaluation, one
// sub-benchmark per artifact, through the experiment registry. Run with:
//
//	go test -bench=. -benchmem
//
// Each iteration performs one full (virtual-time) run of the experiment,
// so wall-clock ns/op measures simulator cost while the custom metrics
// carry the reproduced results: the mean of each result series. Artifacts
// that are tables only (E1, T1, F10, ...) report no metric; print them with
// `go run ./cmd/e2ebench -run <ID>`.
package e2edt

import (
	"testing"

	"e2edt/internal/experiments"
)

// paperIDs are the artifacts of the paper's evaluation: §2.3 (E1, E2),
// Table 1, Figures 4 and 7–14, and the §4.1/§4.3 ablations (A1, A2).
var paperIDs = []string{
	"E1", "E2", "T1", "F4", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "A1", "A2",
}

func BenchmarkExperiments(b *testing.B) {
	for _, id := range paperIDs {
		b.Run(id, func(b *testing.B) {
			var res experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = experiments.Run(id); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range res.Series {
				b.ReportMetric(s.Mean(), s.Name)
			}
		})
	}
}
