package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestIDsCoverEveryTableAndFigure(t *testing.T) {
	ids := IDs()
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "S2.4", "S5.2.1", "S5.3", "S6", "S7"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("Z9", QuickConfig); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAllExperimentsPassQuickConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	outcomes, err := All(QuickConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		t.Logf("%s: OK=%v", o.ID, o.OK)
		if !o.OK {
			t.Errorf("experiment %s did not reproduce the paper's claim:\n%s", o.ID, o.Render())
		}
		if o.Text == "" {
			t.Errorf("experiment %s produced no artifact", o.ID)
		}
		if !strings.Contains(o.Render(), o.ID) {
			t.Errorf("render of %s lacks its ID", o.ID)
		}
	}
}

func TestRunSingleByID(t *testing.T) {
	o, err := Run("t1", QuickConfig) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != "T1" || !o.OK {
		t.Errorf("outcome = %+v", o)
	}
}

// TestReportMatchesCommittedArtifact pins experiments_output.txt: the full
// paper-scale run must reproduce the committed artifact byte for byte, so
// any change to an attack's steps, a study's statistics or a figure's
// numbers shows up here.
func TestReportMatchesCommittedArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment sweep is slow")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := All(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Report(outcomes)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments_output.txt line %d differs:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
