package obs

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current renderers")

// pinScript records a fixed set of events that moves every exported
// series of a ledger, plus the two unexported ones: each counter and
// gauge by a distinct amount, each phase histogram by a distinct number of
// observations, with a negative observation (clamped to zero) and
// observations past the last bucket bound (the overflow bucket).
func pinScript(s *Set) {
	s.Sessions.Add(3)
	s.SessionsActive.Set(2)
	s.Inferences.Add(17)
	s.Batches.Add(2)
	s.Errors.Inc()
	s.SessionsResumed.Add(1)
	s.ResumeMisses.Add(5)
	s.BytesSent.Add(32_223_776)
	s.BytesReceived.Add(1_961_234)
	for _, v := range []int64{-5, 0, 42_000, 3_100_000, 8_000_000, 61_000_000_000} {
		s.InferenceSeconds.Observe(v)
	}
	for ph := range s.Phase {
		for k := 0; k <= ph; k++ {
			s.Phase[ph].Observe(int64(ph+1) * int64(k+1) * 731_000)
		}
	}
	s.Phase[PhaseOutputRoundTrip].Observe(90_000_000_000)
	s.Phase[PhaseEval].Observe(-1)
	s.OTConsumed.Add(9536)
	s.AdmissionQueueDepth.Set(1)
	s.SessionsQueued.Add(4)
	s.SessionsShed.Add(6)
	s.Panics.Inc()
	s.GatesAnd.Add(1_408_000)
	s.GatesFree.Add(5_300_000)
	s.GateTime.Add(1_234_567_891)
	s.OTOfflineTime.Add(77)
	s.SessionTime.Add(88)
}

// TestExpositionPinned pins the three read-outs of a ledger — the
// Prometheus text of /metrics, the JSON of /debug/stats and the serving log
// line — byte for byte, on a fresh set shaped like Root after pinScript.
// Run with -update to rewrite the golden files; a change that means to move
// the exposition is a reviewed edit of testdata.
func TestExpositionPinned(t *testing.T) {
	s := NewSet(nil)
	pinScript(s)
	for _, r := range []struct {
		file  string
		write func(io.Writer) error
	}{
		{"metrics.golden", func(w io.Writer) error { return WritePrometheus(w, s) }},
		{"stats.golden", func(w io.Writer) error { return WriteJSON(w, s) }},
		{"line.golden", func(w io.Writer) error {
			_, err := io.WriteString(w, ServingLine(s)+"\n")
			return err
		}},
	} {
		var got bytes.Buffer
		if err := r.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", r.file)
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: the exposition moved:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
		}
	}
}
