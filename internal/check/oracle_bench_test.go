package check

import "testing"

// BenchmarkEnumerate times the SC oracle on the inputs its two callers
// give it: one op is 300 generator seeds (the fuzzer) or the 72-program
// family rcccheck exhausts by default.
func BenchmarkEnumerate(b *testing.B) {
	gen := DefaultGenConfig()
	seeds := make([]*Prog, 300)
	for i := range seeds {
		seeds[i] = Generate(uint64(i), gen)
	}
	for _, bc := range []struct {
		name  string
		progs []*Prog
	}{
		{"seeds300", seeds},
		{"family72", EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range bc.progs {
					if _, err := p.Enumerate(DefaultEnumLimits()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEnumFamily times generating rcccheck's default family: every
// candidate program built, checked and canonicalised.
func BenchmarkEnumFamily(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fam := EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2}); len(fam) != 72 {
			b.Fatalf("%d programs, want 72", len(fam))
		}
	}
}
