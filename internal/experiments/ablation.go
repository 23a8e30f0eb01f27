package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/nurd"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

// AblationPoint is one hyperparameter configuration evaluated over a job
// set.
type AblationPoint struct {
	// Label names the configuration ("alpha=0.1").
	Label string
	// Rates are the macro-averaged accuracy rates.
	Rates metrics.Rates
}

// AblationConfig controls an ablation sweep.
type AblationConfig struct {
	// Spec is the workload.
	Spec TraceSpec
	// SimCfg is the replay configuration.
	SimCfg simulator.Config
	// Seed drives everything.
	Seed uint64
}

// nurdVariant builds a factory for one NURD configuration.
func nurdVariant(label string, mutate func(*nurd.Config), confirm int) predictor.Factory {
	return predictor.Factory{
		Name: label,
		New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			cfg := nurd.DefaultConfig()
			mutate(&cfg)
			return predictor.NewNURDWith(label, cfg, confirm)
		},
	}
}

// AblateAlpha sweeps the calibration scale alpha (delta = alpha/(1+rho)).
// alpha = 0 disables calibration entirely (the NURD-NC ablation).
func AblateAlpha(cfg AblationConfig, alphas []float64) ([]AblationPoint, error) {
	var facs []predictor.Factory
	for _, a := range alphas {
		a := a
		label := fmt.Sprintf("alpha=%.2f", a)
		facs = append(facs, nurdVariant(label, func(c *nurd.Config) {
			if a == 0 {
				c.Calibrate = false
			} else {
				c.Alpha = a
			}
		}, 2))
	}
	return runAblation(cfg, facs)
}

// AblateEpsilon sweeps the minimum positive weight (the dilation cap
// 1/epsilon).
func AblateEpsilon(cfg AblationConfig, epsilons []float64) ([]AblationPoint, error) {
	var facs []predictor.Factory
	for _, e := range epsilons {
		e := e
		label := fmt.Sprintf("eps=%.3f", e)
		facs = append(facs, nurdVariant(label, func(c *nurd.Config) {
			c.Epsilon = e
		}, 2))
	}
	return runAblation(cfg, facs)
}

// AblateConfirm sweeps the consecutive-confirmation requirement (1 = the
// literal Algorithm 1; higher values trade earliness for noise robustness).
func AblateConfirm(cfg AblationConfig, confirms []int) ([]AblationPoint, error) {
	var facs []predictor.Factory
	for _, k := range confirms {
		k := k
		label := fmt.Sprintf("confirm=%d", k)
		facs = append(facs, nurdVariant(label, func(c *nurd.Config) {}, k))
	}
	return runAblation(cfg, facs)
}

// AblateGate sweeps the prediction gate (minimum finished fraction).
func AblateGate(cfg AblationConfig, gates []float64) ([]AblationPoint, error) {
	var facs []predictor.Factory
	for _, g := range gates {
		g := g
		label := fmt.Sprintf("gate=%.2f", g)
		facs = append(facs, nurdVariant(label, func(c *nurd.Config) {
			c.MinFinishedFrac = g
		}, 2))
	}
	return runAblation(cfg, facs)
}

func runAblation(cfg AblationConfig, facs []predictor.Factory) ([]AblationPoint, error) {
	if cfg.Spec.NumJobs == 0 {
		cfg.Spec = GoogleSpec(8, cfg.Seed)
	}
	if cfg.SimCfg.Checkpoints == 0 {
		cfg.SimCfg = simulator.DefaultConfig()
	}
	ev, err := Run(cfg.Spec, facs, cfg.SimCfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(ev.Methods))
	for i, m := range ev.Methods {
		out[i] = AblationPoint{Label: m.Name, Rates: m.Avg()}
	}
	return out, nil
}

// RenderAblation formats a sweep as an aligned table.
func RenderAblation(title string, points []AblationPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString(fmt.Sprintf("%-14s %6s %6s %6s %6s\n", "Config", "TPR", "FPR", "FNR", "F1"))
	for _, p := range points {
		b.WriteString(fmt.Sprintf("%-14s %6.2f %6.2f %6.2f %6.2f\n",
			p.Label, p.Rates.TPR, p.Rates.FPR, p.Rates.FNR, p.Rates.F1))
	}
	return b.String()
}

// DefaultAblations runs the standard four sweeps on a Google-like workload
// and renders them (used by cmd/nurdbench -exp ablation).
func DefaultAblations(jobs int, seed uint64) (string, error) {
	cfg := AblationConfig{Spec: GoogleSpec(jobs, seed), Seed: seed}
	cfg.Spec.Gen.Mode = trace.ModeGoogle
	var b strings.Builder

	alpha, err := AblateAlpha(cfg, []float64{0, 0.1, 0.2, 0.4, 0.8})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderAblation("--- calibration scale alpha (0 = NURD-NC) ---", alpha))
	b.WriteString("\n")

	eps, err := AblateEpsilon(cfg, []float64{0.01, 0.05, 0.2, 0.5})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderAblation("--- minimum weight epsilon (max dilation 1/eps) ---", eps))
	b.WriteString("\n")

	confirm, err := AblateConfirm(cfg, []int{1, 2, 3})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderAblation("--- confirmation requirement ---", confirm))
	b.WriteString("\n")

	gate, err := AblateGate(cfg, []float64{0.05, 0.15, 0.3})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderAblation("--- prediction gate (min finished fraction) ---", gate))
	return b.String(), nil
}
