package xipc

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// FuzzRxFrames feeds an arbitrary byte stream to an rxQueue in arbitrary
// pieces and holds what reaches the loop against a plain reading of the
// stream: every whole frame, in order, byte for byte, up to the first
// length prefix over the limit — whatever the reads happened to split,
// whichever buffer a frame landed in, however far a buffer had to grow.
func FuzzRxFrames(f *testing.F) {
	frame := func(n int, fill byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(n))
		return append(b, bytes.Repeat([]byte{fill}, n)...)
	}
	f.Add(append(frame(5, 'a'), frame(0, 0)...), uint16(0))
	f.Add(bytes.Join([][]byte{frame(3, 'x'), frame(2*rxBufMin, 'y'), frame(1, 'z')}, nil), uint16(1000))
	f.Add(bytes.Repeat(frame(20, 'q'), 500), uint16(rxBufMin-1))
	f.Add(append(frame(7, 'p'), 0, 0, 0), uint16(2))                   // ends inside a prefix
	f.Add(append(frame(7, 'p'), 0xff, 0xff, 0xff, 0xff, 1), uint16(3)) // a prefix over the limit
	f.Fuzz(func(t *testing.T, stream []byte, piece uint16) {
		var want [][]byte
		for b := stream; len(b) >= 4; {
			n := int(binary.BigEndian.Uint32(b))
			if n > maxFrame || len(b)-4 < n {
				break
			}
			want = append(want, b[4:4+n])
			b = b[4+n:]
		}

		near, far := net.Pipe()
		loop := eventloop.New(nil)
		var got [][]byte
		ended := make(chan struct{}, 2)
		q := newRxQueue(near, loop,
			func(fr []byte) error { got = append(got, bytes.Clone(fr)); return nil },
			func(error) { near.Close(); ended <- struct{}{} })
		go q.readLoop()
		go func() {
			defer far.Close()
			for b := stream; len(b) > 0; {
				n := min(len(b), int(piece)+1)
				if _, err := far.Write(b[:n]); err != nil {
					return // the queue gave up on the stream
				}
				b = b[n:]
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for done := false; !done; {
			select {
			case <-ended:
				done = true
			default:
				if time.Now().After(deadline) {
					t.Fatal("the reader never finished the stream")
				}
				if loop.RunPending() == 0 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
		loop.RunPending() // the batch handed over before the stream ended
		if len(got) != len(want) {
			t.Fatalf("%d frames delivered, the stream holds %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d delivered as %x, sent as %x", i, got[i], want[i])
			}
		}
	})
}
