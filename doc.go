// Package tunable is a from-scratch Go reproduction of "Automatic
// Configuration and Run-time Adaptation of Distributed Applications"
// (Chang & Karamcheti, HPDC 2000): a framework that lets distributed
// applications adapt their behaviour to changing resource availability by
// combining programmer-specified alternate configurations with automatic
// profiling, monitoring, scheduling, and steering.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory); runnable entry points are the tools in cmd/, and the
// Example tests in internal/core and internal/apps are the output-checked
// walkthroughs. The benchmark harness in bench_test.go regenerates every
// figure of the paper's evaluation.
package tunable
