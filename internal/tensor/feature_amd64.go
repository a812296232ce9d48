//go:build amd64

package tensor

// CPU feature detection for the amd64 kernel dispatch. The assembly
// kernels in kernel_avx2_amd64.s need FMA3 and AVX2, plus OS support for
// saving/restoring the YMM register state (OSXSAVE + XCR0 bits 1-2). The
// whole dance runs once, from pickKernel at package init. The probe and
// the assembly build under every tag; only archKernel (arch_amd64.go)
// is left out of a purego build.

// cpuid executes CPUID with the given leaf/subleaf; kernel_avx2_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE); kernel_avx2_amd64.s.
func xgetbv0() (eax, edx uint32)

// hasAVX2FMA reports whether the host supports the AVX2+FMA kernels:
// CPUID.1:ECX advertises FMA, AVX and OSXSAVE; XCR0 confirms the OS
// saves XMM+YMM state; CPUID.7:EBX advertises AVX2.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
