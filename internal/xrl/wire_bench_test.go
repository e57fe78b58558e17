package xrl

import (
	"strconv"
	"testing"
)

// BenchmarkParseShapes decodes request frames into one reused Request, as
// a transport does for every frame of a connection: the benchmark
// workload's three argument counts, where each frame repeats the strings
// of the one before it, and two four-argument streams where it does not —
// one whose command alternates between two of equal length, and one whose
// every string (target, command, key and atom names) does.
func BenchmarkParseShapes(b *testing.B) {
	type shape struct {
		target, command, key, names string
		nargs                       int
	}
	sink := shape{"benchsink", "bench/1.0/sink", "0123456789abcdef", "a", 4}
	with := func(s shape, edit func(*shape)) shape { edit(&s); return s }
	for _, c := range []struct {
		name   string
		shapes []shape // decoded in turn
	}{
		{"0args", []shape{with(sink, func(s *shape) { s.nargs = 0 })}},
		{"4args", []shape{sink}},
		{"16args", []shape{with(sink, func(s *shape) { s.nargs = 16 })}},
		{"4args_command_changes", []shape{sink, with(sink, func(s *shape) { s.command = "bench/1.0/sunk" })}},
		{"4args_every_string_changes", []shape{sink, {"benchsunk", "bench/1.0/sunk", "fedcba9876543210", "b", 4}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			frames := make([][]byte, len(c.shapes))
			for k, s := range c.shapes {
				args := make(Args, s.nargs)
				for i := range args {
					args[i] = U32(s.names+strconv.Itoa(i), uint32(i)*2654435761)
				}
				var err error
				frames[k], err = AppendRequest(nil, &Request{Seq: 7, Target: s.target, Command: s.command, Key: s.key, Args: args})
				if err != nil {
					b.Fatal(err)
				}
			}
			var req Request
			for _, f := range frames { // warm the intern table
				if err := ParseRequest(f, &req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ParseRequest(frames[i%len(frames)], &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
