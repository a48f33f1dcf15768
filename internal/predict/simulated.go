package predict

// SimulatedConfig builds the Config for one of the paper's evaluation
// platforms under its calibrated production load: Platform 1 with the
// center-mode load on the Sparc-2s and light load elsewhere (§3.1), or
// Platform 2 with the 4-modal bursty load on every machine (§3.2). Both
// run long-tailed ethernet contention on the shared link. It is
// SimulatedSpec materialized — the one description of the two platforms —
// for callers (cmd/sorpredict, the facade's SimulatedPredictConfig, tests)
// that want a Config to adjust before building the service.
func SimulatedConfig(platform int, seed int64) (Config, error) {
	spec, err := SimulatedSpec(platform, seed)
	if err != nil {
		return Config{}, err
	}
	return spec.Config()
}
