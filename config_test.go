package nbbs_test

import (
	"errors"
	"testing"

	nbbs "repro"
	"repro/internal/stack"
)

// shape fingerprints the layers a stack was built with, so the
// structured-Config and functional-option forms can be compared.
func shape(b *nbbs.Buddy) map[string]bool {
	return map[string]bool{
		"multi":        b.Multi() != nil,
		"elastic":      b.Elastic() != nil,
		"slab":         b.Slab() != nil,
		"mapped":       b.Mapped(),
		"materialized": b.Materialized(),
		"telemetry":    b.Telemetry() != nil,
	}
}

// TestConfigOptionEquivalence pins the adapter contract of the v2
// facade: every With* option and its Config field describe the same
// stack. Each case builds both forms and compares the composed stack
// label (which encodes the full layer chain) and the layer accessors.
func TestConfigOptionEquivalence(t *testing.T) {
	geo := nbbs.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}
	cases := []struct {
		name string
		cfg  nbbs.Config
		opts []nbbs.Option
	}{
		{
			name: "bare",
			cfg:  geo,
		},
		{
			name: "variant",
			cfg: func() nbbs.Config {
				c := geo
				c.Variant = nbbs.Variant1Lvl
				return c
			}(),
			opts: []nbbs.Option{nbbs.WithVariant(nbbs.Variant1Lvl)},
		},
		{
			name: "instances",
			cfg: func() nbbs.Config {
				c := geo
				c.Backing.Instances = 4
				return c
			}(),
			opts: []nbbs.Option{nbbs.WithInstances(4)},
		},
		{
			name: "elastic-implies-instances",
			cfg: func() nbbs.Config {
				c := geo
				c.Elastic = &nbbs.ElasticConfig{MaxInstances: 4}
				return c
			}(),
			opts: []nbbs.Option{nbbs.WithElastic(nbbs.ElasticConfig{MaxInstances: 4})},
		},
		{
			name: "mapped-elastic",
			cfg: func() nbbs.Config {
				c := geo
				c.Backing.Mapped = true
				c.Elastic = &nbbs.ElasticConfig{MaxInstances: 4}
				return c
			}(),
			opts: []nbbs.Option{
				nbbs.WithMappedMemory(),
				nbbs.WithElastic(nbbs.ElasticConfig{MaxInstances: 4}),
			},
		},
		{
			name: "frontend-depot-slab",
			cfg: func() nbbs.Config {
				c := geo
				c.Frontend.Depot = true
				c.Frontend.Slab = true
				return c
			}(),
			opts: []nbbs.Option{
				nbbs.WithDepot(),
				nbbs.WithSlab(0),
			},
		},
		{
			name: "materialized",
			cfg: func() nbbs.Config {
				c := geo
				c.Backing.Materialize = true
				return c
			}(),
			opts: []nbbs.Option{nbbs.WithMaterializedRegion()},
		},
		{
			name: "telemetry",
			cfg: func() nbbs.Config {
				c := geo
				c.Telemetry.Enabled = true
				return c
			}(),
			opts: []nbbs.Option{nbbs.WithTelemetry(nbbs.TelemetryConfig{})},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viaConfig, err := nbbs.New(tc.cfg)
			if err != nil {
				t.Fatalf("Config form: %v", err)
			}
			viaOpts, err := nbbs.New(geo, tc.opts...)
			if err != nil {
				t.Fatalf("option form: %v", err)
			}
			if a, b := viaConfig.Name(), viaOpts.Name(); a != b {
				t.Fatalf("stack labels diverge: Config %q vs options %q", a, b)
			}
			cs, os := shape(viaConfig), shape(viaOpts)
			for layer := range cs {
				if cs[layer] != os[layer] {
					t.Errorf("layer %s: Config form %v, option form %v", layer, cs[layer], os[layer])
				}
			}
			// Both forms must actually serve traffic.
			for _, b := range []*nbbs.Buddy{viaConfig, viaOpts} {
				h := b.NewHandle()
				off, ok := h.Alloc(128)
				if !ok {
					t.Fatal("alloc failed")
				}
				h.Free(off)
			}
		})
	}
}

// TestOptionsOverrideConfig pins the layering order: functional options
// apply on top of the structured fields, so mixing the forms is
// well-defined.
func TestOptionsOverrideConfig(t *testing.T) {
	cfg := nbbs.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}
	cfg.Variant = nbbs.Variant1Lvl
	b, err := nbbs.New(cfg, nbbs.WithVariant(nbbs.Variant4Lvl))
	if err != nil {
		t.Fatal(err)
	}
	if b.Variant() != nbbs.Variant4Lvl {
		t.Fatalf("option did not override Config field: variant %q", b.Variant())
	}
}

// TestConfigElasticPolicy builds an elastic stack with the predictive
// policy through the structured Config and checks it is wired through.
func TestConfigElasticPolicy(t *testing.T) {
	cfg := nbbs.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}
	cfg.Backing.Instances = 2
	cfg.Elastic = &nbbs.ElasticConfig{
		MaxInstances: 4,
		Policy:       nbbs.NewPredictivePolicy(nbbs.PredictiveConfig{}),
	}
	b, err := nbbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := b.Elastic()
	if mgr == nil {
		t.Fatal("no elastic manager")
	}
	if got := mgr.Policy().Name(); got != "predictive" {
		t.Fatalf("policy %q, want predictive", got)
	}
	if _, ok := mgr.Policy().(*nbbs.PredictivePolicy); !ok {
		t.Fatalf("policy type %T", mgr.Policy())
	}
}

// TestMigrationRejectedUnderCache: live-chunk migration moves offsets
// that the depot's magazines and the slab's runs would still hand out,
// so the facade refuses the combination at build time.
func TestMigrationRejectedUnderCache(t *testing.T) {
	for _, fe := range []nbbs.FrontendConfig{{Depot: true}, {Slab: true}} {
		cfg := nbbs.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16, Frontend: fe}
		cfg.Elastic = &nbbs.ElasticConfig{MaxInstances: 4, Migration: nbbs.MigrationConfig{Enabled: true}}
		if _, err := nbbs.New(cfg); !errors.Is(err, stack.ErrMigrationCached) {
			t.Errorf("frontend %+v with migration: err = %v, want ErrMigrationCached", fe, err)
		}
	}
}
