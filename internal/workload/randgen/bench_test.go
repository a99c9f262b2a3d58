package randgen

import (
	"math"
	randv2 "math/rand/v2"
	"testing"
)

// Per-primitive benchmarks against the stdlib reference samplers the
// package replaces. The two headline pairs are the per-request draws:
// RandgenZipfExpPath vs RandgenZipfExpPathLegacy (Zipf key + exponential
// gap, the ≥3× gate the generator was built against) and
// RandgenJitterPath vs RandgenJitterPathLegacy (the log-normal jitter
// multiplier).

var (
	sinkU uint64
	sinkF float64
)

func BenchmarkRandgenUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkU += s.Uint64()
	}
}

func BenchmarkRandgenZipfAlias(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1.1, 1, 99_999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU += z.Uint64()
	}
}

func BenchmarkRandgenZipfReference(b *testing.B) {
	r := randv2.New(New(1))
	z := randv2.NewZipf(r, 1.1, 1, 99_999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU += z.Uint64()
	}
}

func BenchmarkRandgenExpZiggurat(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += s.ExpFloat64()
	}
}

func BenchmarkRandgenExpReference(b *testing.B) {
	r := randv2.New(New(1))
	for i := 0; i < b.N; i++ {
		sinkF += r.ExpFloat64()
	}
}

func BenchmarkRandgenNormZiggurat(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += s.NormFloat64()
	}
}

func BenchmarkRandgenNormReference(b *testing.B) {
	r := randv2.New(New(1))
	for i := 0; i < b.N; i++ {
		sinkF += r.NormFloat64()
	}
}

func BenchmarkRandgenFastExp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF += FastExp(float64(i&255)*0.01 - 1.28)
	}
}

func BenchmarkRandgenMathExp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkF += math.Exp(float64(i&255)*0.01 - 1.28)
	}
}

// The acceptance-gate pair: one workload draw = one Zipf key + one
// exponential inter-arrival gap.

func BenchmarkRandgenZipfExpPath(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1.1, 1, 99_999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU += z.Uint64()
		sinkF += s.ExpFloat64()
	}
}

func BenchmarkRandgenZipfExpPathLegacy(b *testing.B) {
	r := randv2.New(randv2.NewPCG(1, 1^0x9e3779b97f4a7c15))
	z := randv2.NewZipf(r, 1.1, 1, 99_999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU += z.Uint64()
		sinkF += r.ExpFloat64()
	}
}

// The jitter pair: the log-normal latency multiplier exp(σ·Z) drawn once
// per served request, at σ = 0.13 (the kernel cost model's default
// JitterSigma).

const benchJitterSigma = 0.13

func BenchmarkRandgenJitterPath(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkF += FastExp(s.NormFloat64() * benchJitterSigma)
	}
}

func BenchmarkRandgenJitterPathLegacy(b *testing.B) {
	r := randv2.New(randv2.NewPCG(1, 1^0x9e3779b97f4a7c15))
	for i := 0; i < b.N; i++ {
		sinkF += math.Exp(r.NormFloat64() * benchJitterSigma)
	}
}
