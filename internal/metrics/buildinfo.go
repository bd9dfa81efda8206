package metrics

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Version reports the binary's version string: the module version when
// the binary was built from a tagged module, else the VCS revision the
// go tool stamped into the build info (suffixed "-dirty" for modified
// trees), else "dev". Cheap enough to call once at startup.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// RegisterBuildInfo publishes the process identity series every
// component exports so fleet rollups can detect mixed-version rooms:
//
//	padpd_build_info{component,version,go_version} 1
//	padpd_start_time_seconds                       <unix time>
//	padpd_uptime_seconds                           <live>
//
// component names the binary ("powerd", "powercoord", ...). Safe to
// call more than once and on a nil registry.
func RegisterBuildInfo(r *Registry, component string) {
	if r == nil {
		return
	}
	r.GaugeVec(buildInfoName,
		"Build and version identity of the process; value is always 1.",
		buildInfoLabels...).
		With(component, Version(), runtime.Version()).Set(1)
	start := time.Now()
	r.Gauge("padpd_start_time_seconds", "Unix time the process started.").
		Set(float64(start.UnixNano()) / 1e9)
	r.GaugeFunc("padpd_uptime_seconds", "Seconds since the process started.", func() float64 {
		return time.Since(start).Seconds()
	})
}

const buildInfoName = "padpd_build_info"

var buildInfoLabels = []string{"component", "version", "go_version"}

// BuildInfo is a process's build identity: the label values of its
// padpd_build_info series.
type BuildInfo struct {
	Component string `json:"component"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// Series renders the identity as the padpd_build_info series name
// /metrics exposes it under.
func (b BuildInfo) Series() string {
	return buildInfoName + formatLabels(buildInfoLabels, []string{b.Component, b.Version, b.GoVersion})
}

// BuildInfo reports the identity RegisterBuildInfo published on r, or
// nil when none was. Nil-safe.
func (r *Registry) BuildInfo() *BuildInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.fams[buildInfoName]
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.keys) == 0 {
		return nil
	}
	lv := f.lvals[f.keys[0]]
	return &BuildInfo{Component: lv[0], Version: lv[1], GoVersion: lv[2]}
}
