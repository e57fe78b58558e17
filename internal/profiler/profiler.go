// Package profiler is what is left of the §8.2 profiler once its points
// became telemetry.Tracer stages: the four names benchmark/layers.go's
// probe measurement calls, kept compiling until ROADMAP item 1 moves that
// driver onto the tracer. No router process imports it, and nothing can
// switch a Point on.
package profiler

import "xorp/internal/eventloop"

// Profiler hands out points.
type Profiler struct{}

// New returns a Profiler; the clock is unused.
func New(eventloop.Clock) *Profiler { return &Profiler{} }

// Point returns a new, disabled point.
func (*Profiler) Point(string) *Point { return &Point{} }

// Point is a probe that is never switched on.
type Point struct{ enabled bool }

// Enabled reports whether records are kept: the one load a guard costs.
func (p *Point) Enabled() bool { return p.enabled }

// Logf keeps no record.
func (p *Point) Logf(string, ...any) {}
