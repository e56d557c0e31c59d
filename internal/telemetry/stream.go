package telemetry

import "io"

// An exporter appends its records into one buffer of streamBufSize bytes
// and writes it out once fewer than recordRoom bytes are left, so its
// memory does not depend on how many records it writes. A record longer
// than recordRoom (only a metadata or workload record with a very long
// name can be) grows the buffer instead of overrunning it.
const (
	streamBufSize = 64 << 10
	recordRoom    = 1 << 10
)

// stream is an exporter's output: records are appended to b, and b is
// handed to w whenever it fills.
type stream struct {
	w io.Writer
	b []byte
}

func newStream(w io.Writer) stream {
	return stream{w: w, b: make([]byte, 0, streamBufSize)}
}

// endRecord follows every record: it writes the buffer out once it has
// filled, and returns the writer's error.
func (s *stream) endRecord() error {
	if len(s.b) <= streamBufSize-recordRoom {
		return nil
	}
	return s.flush()
}

// flush writes out whatever the buffer holds.
func (s *stream) flush() error {
	_, err := s.w.Write(s.b)
	s.b = s.b[:0]
	return err
}
