package metrics

// OmitZero wraps a Source so that zero-valued samples are suppressed at
// collection time: a wrapped counter/gauge emits nothing until it has been
// touched, and since Gather omits families with no samples, the family is
// entirely absent from snapshots and expositions until then.
//
// This is the service-plane analogue of the faultinject_* convention on the
// campaign plane: families that describe exceptional conditions (stalled
// jobs, recovered jobs, queue backpressure) stay out of idle expositions,
// so "the family exists" is itself a signal and golden idle dumps never
// churn when new supervision families are added.
func OmitZero(src Source) Source { return omitZero{src: src} }

type omitZero struct{ src Source }

// Describe implements Source (descriptors are still validated and reserved
// even while no samples are emitted).
func (o omitZero) Describe() []Desc { return o.src.Describe() }

// Collect implements Source, dropping samples whose value, histogram count,
// and buckets are all zero.
func (o omitZero) Collect(emit func(name string, s Sample)) {
	o.src.Collect(func(name string, s Sample) {
		if s.Value == 0 && s.Count == 0 && s.Sum == 0 && allZero(s.BucketCounts) {
			return
		}
		emit(name, s)
	})
}

func allZero(counts []uint64) bool {
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}
