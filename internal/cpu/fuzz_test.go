package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/workload"
)

// FuzzAnnotationsFromBytes runs the ANNO decoder a warm store reload
// uses over arbitrary bytes, seeded with a real program's annotations:
// it must never panic, and whatever it accepts must re-encode to the
// same bytes through the descriptors, which is where a cold prepare keeps
// the redirects and where AnnotationBytes reads them. Each descriptor
// also carries bits other than the redirect (block opening, load, store,
// group end, data level), which the encoding must ignore.
func FuzzAnnotationsFromBytes(f *testing.F) {
	prof, _ := workload.ByName("media-streaming")
	tr := workload.Generate(prof, 1000)
	f.Add(NewProgram(tr, branch.NewFrontEnd().Annotate(tr)).AnnotationBytes(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ann, err := AnnotationsFromBytes(data)
		if err != nil {
			return
		}
		p := &Program{Desc: make([]uint8, len(ann))}
		for i, a := range ann {
			other := uint8(i*37) & (descNewBlock | descLoad | descStore | descGroupEnd | descLevel)
			p.Desc[i] = other | redirectDesc(a.Redirect)
		}
		if got := p.AnnotationBytes(nil); string(got) != string(data) {
			t.Fatalf("annotations re-encode to %x, want %x", got, data)
		}
	})
}
