// Package avis implements the paper's evaluation workload: the active
// visualization application (Section 2.1), a client/server viewer for
// large images stored as wavelet coefficients. The client progressively
// fetches a growing foveal region (increment dR per round) at a requested
// resolution level l, optionally compressed with codec c — the three
// control parameters of Figure 2. Real image data flows through the real
// wavelet and compression code; processor demand is charged to the
// sandboxes through a calibrated cost model so the virtual-time
// experiments reproduce the time scales of the paper's figures.
//
// The session itself is written once: session.go is the client half
// (Figure 2's annotated loop), serve.go the server half, and both run over
// the env interface of env.go, which has two implementations — the
// virtual-time testbed and a TCP connection. Client/Server and
// RealClient/RealServer are constructors binding the core to one of them,
// so the program the figures measure is the program that ships.
package avis

import (
	"fmt"

	"tunable/internal/spec"
)

// CostModel maps application work to processor cycles charged to the
// sandboxes. The default values are calibrated (see DESIGN.md §6) so that
// on a 450 MHz host the figures reproduce the paper's shapes: the
// Figure 6(a) codec crossover falls between 50 and 500 KB/s, the
// Experiment 2 deadline of 10 s separates resolution levels 3 and 4 at a
// 40% CPU share, and the Experiment 3 response-time bound of 1 s separates
// fovea sizes 80 and 320.
type CostModel struct {
	// DisplayCyclesPerPixel is the client cost of updating the display,
	// per region pixel.
	DisplayCyclesPerPixel float64
	// DecodeCyclesPerByte is the client decompression cost per raw byte,
	// scaled by the codec's DecodeCost factor.
	DecodeCyclesPerByte float64
	// EncodeCyclesPerByte is the server compression cost per raw byte,
	// scaled by the codec's EncodeCost factor.
	EncodeCyclesPerByte float64
	// ExtractCyclesPerCoeff is the server cost of extracting one
	// coefficient from the pyramid.
	ExtractCyclesPerCoeff float64
	// RequestOverheadCycles is the fixed server cost per request round.
	RequestOverheadCycles float64
	// RoundOverheadCycles is the fixed client cost per request round
	// (user-interaction check, bookkeeping).
	RoundOverheadCycles float64
}

// DefaultCostModel returns the calibrated model.
func DefaultCostModel() CostModel {
	return CostModel{
		DisplayCyclesPerPixel: 950,
		DecodeCyclesPerByte:   400,
		EncodeCyclesPerByte:   240,
		ExtractCyclesPerCoeff: 20,
		RequestOverheadCycles: 22e6,
		RoundOverheadCycles:   9e6,
	}
}

// Params are the application's control parameters (Figure 2).
type Params struct {
	DR    int    // incremental fovea size, full-resolution pixels per round
	Codec string // compression type: "lzw", "bzw", or "raw"
	Level int    // requested resolution level
}

// ParamsFromConfig extracts Params from a specification configuration
// with parameters dR, c, and l.
func ParamsFromConfig(cfg spec.Config) (Params, error) {
	p := Params{}
	dr, ok := cfg["dR"]
	if !ok || dr.Kind != spec.IntValue {
		return p, fmt.Errorf("avis: config missing int parameter dR")
	}
	c, ok := cfg["c"]
	if !ok || c.Kind != spec.EnumValue {
		return p, fmt.Errorf("avis: config missing enum parameter c")
	}
	l, ok := cfg["l"]
	if !ok || l.Kind != spec.IntValue {
		return p, fmt.Errorf("avis: config missing int parameter l")
	}
	p.DR, p.Codec, p.Level = dr.I, c.S, l.I
	if p.DR <= 0 {
		return p, fmt.Errorf("avis: dR must be positive")
	}
	return p, nil
}

// Config renders Params as a specification configuration.
func (p Params) Config() spec.Config {
	return spec.Config{
		"dR": spec.Int(p.DR),
		"c":  spec.Enum(p.Codec),
		"l":  spec.Int(p.Level),
	}
}

// SpecSource is the tunability specification of the application in the
// annotation language, mirroring Figure 2 of the paper.
const SpecSource = `
app active_visualization;

control_parameters {
    int dR in {80, 160, 320};   // incremental fovea size
    enum c in {lzw, bzw};       // compression type
    int l in {2, 3, 4};         // level of image resolution
}

execution_env {
    host client;
    host server;
    link net from client to server;
}

qos_metric {
    duration transmit_time minimize;  // total image transmission time
    duration response_time minimize;  // average response time of a round
    scalar resolution maximize;       // delivered image resolution
}

task module1 {
    params { dR, c, l }
    uses { client.cpu, client.bandwidth, server.cpu }
    yields { transmit_time, response_time, resolution }
    guard ( l >= 2 )
}

transition {
    guard ( new.c != cur.c )
    action notify_server;
}
`

// parsedSpec is SpecSource, parsed once.
var parsedSpec = spec.MustParse(SpecSource)

// Spec returns the parsed SpecSource. Every caller shares one value, so
// none may modify it.
func Spec() *spec.App { return parsedSpec }
