package trace

// StrideSpec describes a regular strided sweep over a memory region:
// Count references starting at Base, advancing Stride bytes each time, each
// preceded by Work computation cycles.
type StrideSpec struct {
	Base   uint64
	Stride uint64
	Count  int
	Kind   Kind
	Dep    bool
	Work   uint32
}

// Stream returns a fresh stream over the spec.
func (sp StrideSpec) Stream() Stream {
	return &strideStream{spec: sp}
}

// strideRun is the number of refs a strideStream returns per run.
const strideRun = 256

type strideStream struct {
	spec StrideSpec
	i    int
	buf  []Ref
}

func (s *strideStream) Next() []Ref {
	n := min(s.spec.Count-s.i, strideRun)
	if n <= 0 {
		return nil
	}
	if s.buf == nil {
		s.buf = make([]Ref, strideRun)
	}
	run := s.buf[:n]
	for k := range run {
		run[k] = Ref{
			Addr: s.spec.Base + uint64(s.i+k)*s.spec.Stride,
			Kind: s.spec.Kind,
			Dep:  s.spec.Dep,
			Work: s.spec.Work,
		}
	}
	s.i += n
	return run
}
