package experiments

// Artifact is one of the paper's tables or figures as hermes-bench prints
// it: a name for `-run` and the rendered rows at a scale and seed.
type Artifact struct {
	Name   string
	Render func(Scale, uint64) string
}

// Artifacts lists every artifact in the order hermes-bench runs them. The
// Fig 9 and Fig 10 entries join their latency, tail and violation panels
// (Figs 9/11/13 and 10/12/14) with blank lines.
var Artifacts = []Artifact{
	{"fig2", func(sc Scale, seed uint64) string { return Fig2(sc, seed).Render() }},
	{"fig3", func(sc Scale, seed uint64) string { return Fig3(sc, seed).Render() }},
	{"fig6", func(sc Scale, seed uint64) string { return Fig6Ablation(sc, seed).Render() }},
	{"fig7", func(sc Scale, seed uint64) string { return Fig7(sc, seed).Render() }},
	{"fig8", func(sc Scale, seed uint64) string { return Fig8(sc, seed).Render() }},
	{"fig9", func(sc Scale, seed uint64) string {
		f := Fig9(sc, seed)
		return f.RenderLatency("Figure 9") + "\n" + f.RenderTail("Figure 11") + "\n" + f.RenderViolation("Figure 13")
	}},
	{"fig10", func(sc Scale, seed uint64) string {
		f := Fig10(sc, seed)
		return f.RenderLatency("Figure 10") + "\n" + f.RenderTail("Figure 12") + "\n" + f.RenderViolation("Figure 14")
	}},
	{"fig15", func(sc Scale, seed uint64) string { return Fig15(sc, seed).Render() }},
	{"fig16", func(sc Scale, seed uint64) string { return Fig16(sc, seed).Render() }},
	{"table1", func(sc Scale, seed uint64) string { return Table1(sc, seed).Render() }},
	{"overhead", func(sc Scale, seed uint64) string { return Overhead(sc, seed).Render() }},
	{"mlock", func(sc Scale, seed uint64) string { return MlockAblation(sc, seed).Render() }},
}
