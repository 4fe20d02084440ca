package ocb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// digestBase folds everything Generate produces into one 64-bit FNV-1a
// hash: the schema (class sizes and declared references), every object's
// class, size and references (read through RefsOf, so the streaming layout
// is hashed through its on-demand derivation), the per-class instance
// lists, the class populations, and the hot-root population.
func digestBase(db *Database) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(db.Classes)))
	for _, c := range db.Classes {
		put(int64(c.InstanceSize))
		put(int64(len(c.Refs)))
		for _, cr := range c.Refs {
			put(int64(cr.Target))
			put(int64(cr.Type))
		}
	}
	put(int64(db.NumObjects()))
	for o := 0; o < db.NumObjects(); o++ {
		put(int64(db.ClassOf(OID(o))))
		put(int64(db.SizeOf(OID(o))))
		refs := db.RefsOf(OID(o))
		put(int64(len(refs)))
		for _, r := range refs {
			put(int64(r))
		}
	}
	put(int64(len(db.ByClass)))
	for _, list := range db.ByClass {
		put(int64(len(list)))
		for _, o := range list {
			put(int64(o))
		}
	}
	for c := range db.Classes {
		put(int64(db.ClassCount(c)))
	}
	put(int64(len(db.HotRoots)))
	for _, o := range db.HotRoots {
		put(int64(o))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestParams are the parameter sets the generator digests are pinned
// on. "table5" is the paper's Table 5 base, whose object locality (100) is
// already smaller than every class. "tiny" shrinks the base so classes hold
// one or two instances under a Zipf population: references land on the
// object's own class often enough to exercise the self-reference retries
// and the NilRef fallback, under a locality window narrower than the
// larger classes, a class-locality window, a hierarchy bias and hot roots.
// "zipfrefs" covers the Zipf class-reference draw and the single
// reference-type branch of the hierarchy bias.
func digestParams() map[string]Params {
	table5 := DefaultParams()

	tiny := DefaultParams()
	tiny.NC = 30
	tiny.NO = 200
	tiny.ObjClassDist = Zipf
	tiny.ObjectLocality = 2
	tiny.ClassLocality = 2
	tiny.TypeZeroBias = 0.4
	tiny.HotRootCount = 25

	zipfRefs := DefaultParams()
	zipfRefs.NC = 20
	zipfRefs.NO = 2000
	zipfRefs.ClassRefDist = Zipf
	zipfRefs.NRefT = 1
	zipfRefs.TypeZeroBias = 0.5
	zipfRefs.HotRootCount = 100

	return map[string]Params{"table5": table5, "tiny": tiny, "zipfrefs": zipfRefs}
}

// TestGenerateDigestPinned pins the generator's output bit for bit under
// every layout. The digests were recorded before the generator's hot loop
// was restructured (O(1) class rank, scalar arguments, the shared
// locality-window draw); any change to a draw, its order or its mapping
// to an OID fails here without going through the simulator.
func TestGenerateDigestPinned(t *testing.T) {
	want := map[string]string{
		"table5/eager":     "9cd1afd0d356dfff",
		"table5/eagerv2":   "c3c4196513833a3e",
		"table5/stream":    "bf66b4ffcad35890",
		"tiny/eager":       "ab7adf701f9d3317",
		"tiny/eagerv2":     "36387bde61bcb393",
		"tiny/stream":      "9f70062c11ce5837",
		"zipfrefs/eager":   "bafaf4cb16b7b43c",
		"zipfrefs/eagerv2": "309ccfb318ea048d",
		"zipfrefs/stream":  "cd5f20ca282dd5ed",
	}
	params := digestParams()
	for _, name := range []string{"table5", "tiny", "zipfrefs"} {
		for _, layout := range []Layout{LayoutEager, LayoutEagerV2, LayoutStream} {
			key := name + "/" + layout.String()
			t.Run(key, func(t *testing.T) {
				db := generateLayout(t, params[name], layout, 1999)
				if got := digestBase(db); got != want[key] {
					t.Errorf("digest %s, want %s", got, want[key])
				}
			})
		}
	}
}

// TestDigestParamsCoverFallbacks guards the coverage the "tiny" digest is
// there for: without NilRef references the self-reference fallback would
// go unpinned.
func TestDigestParamsCoverFallbacks(t *testing.T) {
	for _, layout := range []Layout{LayoutEager, LayoutEagerV2} {
		db := generateLayout(t, digestParams()["tiny"], layout, 1999)
		if n := db.ComputeStats().NilRefs; n == 0 {
			t.Errorf("%v: tiny base has no NilRef references", layout)
		}
	}
}
