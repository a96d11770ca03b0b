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

type strideStream struct {
	spec StrideSpec
	i    int
}

func (s *strideStream) Next() (Ref, bool) {
	if s.i >= s.spec.Count {
		return Ref{}, false
	}
	r := Ref{
		Addr: s.spec.Base + uint64(s.i)*s.spec.Stride,
		Kind: s.spec.Kind,
		Dep:  s.spec.Dep,
		Work: s.spec.Work,
	}
	s.i++
	return r, true
}
