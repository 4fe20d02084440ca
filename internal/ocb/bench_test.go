package ocb

import "testing"

// BenchmarkOCBGenerate tracks the cost (time and allocations) of building
// one mid-size object base — the dominant per-replication setup cost. The
// Refs and ByClass arenas keep allocs/op near-constant in NO instead of
// linear. Time is dominated by the per-reference locality-window draw
// (pickIndex and its bounded rng draws); the class rank it needs is a
// running counter, so the reference pass is linear in the references.
func BenchmarkOCBGenerate(b *testing.B) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 5000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOCBGenerateInto is the warm-rebuild path a replication context
// takes (and the cache-miss path of the sweep-level object-base cache):
// regenerate into a previously used database, recycling its arenas. The
// timed loop alternates between two seeds that the warm-up pass has
// already built — arena sizes depend on the seed's draws (totalRefs
// varies), so warming with the exact timed seeds is what makes even
// -benchtime 1x (the CI 0-allocs/op guard) measure steady state.
func BenchmarkOCBGenerateInto(b *testing.B) {
	p := DefaultParams()
	p.NC = 20
	p.NO = 5000
	db := new(Database)
	for seed := uint64(1); seed <= 2; seed++ {
		if err := GenerateInto(db, p, seed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GenerateInto(db, p, uint64(i%2)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamGen1M is the tentpole's generation benchmark: building a
// million-object base under each layout. The streaming build is a counts
// pass plus an O(classes) index — no per-object materialization — so it is
// both faster and asymptotically smaller than the eager-v2 twin; dbbytes
// and bytes/obj report the resident object-base footprint the simulation
// then carries.
func BenchmarkStreamGen1M(b *testing.B) {
	for _, layout := range []Layout{LayoutEagerV2, LayoutStream} {
		b.Run(layout.String(), func(b *testing.B) {
			p := DefaultParams()
			p.NO = 1_000_000
			p.Layout = layout
			b.ReportAllocs()
			b.ResetTimer()
			var db *Database
			for i := 0; i < b.N; i++ {
				var err error
				if db, err = Generate(p, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(db.ResidentBytes()), "dbbytes")
			b.ReportMetric(float64(db.ResidentBytes())/float64(p.NO), "bytes/obj")
		})
	}
}

// BenchmarkStreamAccess tracks the on-demand derivation cost: RefsOf over
// a streaming base, hitting the materialization cache (sequential scan of
// a hot set that fits) versus missing on every access (random walk far
// larger than the cache).
func BenchmarkStreamAccess(b *testing.B) {
	p := DefaultParams()
	p.NO = 200_000
	for _, mode := range []string{"hit", "miss"} {
		b.Run(mode, func(b *testing.B) {
			pl := p
			pl.Layout = LayoutStream
			if mode == "miss" {
				pl.StreamCacheObjects = 64
			}
			db, err := Generate(pl, 1)
			if err != nil {
				b.Fatal(err)
			}
			// An LCG stride visits objects far apart, defeating the
			// direct-mapped cache in miss mode; hit mode cycles within a
			// fraction of the cache.
			o := OID(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = db.RefsOf(o)
				if mode == "hit" {
					o = (o + 1) % 1024
				} else {
					o = OID((uint64(o)*6364136223846793005 + 1442695040888963407) % uint64(pl.NO))
				}
			}
		})
	}
}
