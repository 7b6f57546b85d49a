package main

import "time"

// The reference kernel is a fixed 128×128 column-major matrix product
// in the benchmark's own code: the same axpy-shaped floating-point loop
// the factorization's kernels run. On a shared host the CPU time of
// floating-point code swings with what other guests run on the same
// physical cores, up to 1.6× between minutes on a 2-vCPU KVM guest.
// The kernel swings with it, so factor's CPU time divided by the
// kernel's, measured right before, stays put.
const (
	refN = 128
	// refNominalMs turns the ratio back into milliseconds: about the
	// kernel's median CPU time on a 2.0 GHz Xeon vCPU.
	refNominalMs = 2.0
)

type refKernel struct{ a, b, c []float64 }

func newRefKernel() *refKernel {
	k := &refKernel{a: make([]float64, refN*refN), b: make([]float64, refN*refN), c: make([]float64, refN*refN)}
	for i := range k.a {
		k.a[i] = float64(i%7) - 3
		k.b[i] = float64(i%5) - 2
	}
	return k
}

// run computes c = a·b once and returns the process CPU time it took.
func (k *refKernel) run() time.Duration {
	start := cpuTime()
	clear(k.c)
	for j := 0; j < refN; j++ {
		cj := k.c[j*refN : (j+1)*refN]
		for l := 0; l < refN; l++ {
			blj, al := k.b[j*refN+l], k.a[l*refN:(l+1)*refN]
			for i := range cj {
				cj[i] += al[i] * blj
			}
		}
	}
	return cpuTime() - start
}

// rescale converts cpu, measured when the kernel took ref, to the CPU
// time it would have been at the kernel's nominal speed.
func rescale(cpu, ref time.Duration) time.Duration {
	return time.Duration(float64(cpu) * refNominalMs / ms(ref))
}
