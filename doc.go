// Package e2edt is a complete, simulation-backed Go reproduction of
// "Design and Performance Evaluation of NUMA-Aware RDMA-Based End-to-End
// Data Transfer Systems" (Ren, Li, Yu, Jin, Robertazzi — SC '13).
//
// The repository root holds the module documentation and one table-driven
// benchmark (bench_test.go) that runs each table and figure of the paper's
// evaluation through the experiment registry. The library lives under
// internal/: see README.md for the architecture, DESIGN.md for the
// paper-to-package substitution map, and EXPERIMENTS.md for
// paper-versus-measured results.
package e2edt
