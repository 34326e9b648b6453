package obs

import "runtime/debug"

// BuildInfo registers the info-gauge name{version,go_version} 1: the
// main module version and the Go toolchain version baked into the
// binary, so a fleet scrape shows at a glance which build each process
// runs. Values fall back to "unknown" when the binary carries no build
// info (e.g. some test binaries).
func (r *Registry) BuildInfo(name string) {
	version, goVersion := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	r.register(name, func(e *Emitter) { e.Int(name, 1, "version", version, "go_version", goVersion) })
}
