package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/workload"
)

// FuzzAnnotationsFromBytes runs the ANNO decoder a warm store reload
// uses over arbitrary bytes, seeded with a real program's annotations:
// it must never panic, and whatever it accepts must re-encode to the
// same bytes.
func FuzzAnnotationsFromBytes(f *testing.F) {
	prof, _ := workload.ByName("media-streaming")
	tr := workload.Generate(prof, 1000)
	f.Add(NewProgram(tr, branch.NewFrontEnd().Annotate(tr)).AnnotationBytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ann, err := AnnotationsFromBytes(data)
		if err != nil {
			return
		}
		if got := (&Program{Ann: ann}).AnnotationBytes(); string(got) != string(data) {
			t.Fatalf("annotations re-encode to %x, want %x", got, data)
		}
	})
}
