// Umbrella header for the observability layer: metrics registry, tracing
// spans, exporters, time-series sampling (with its self-monitoring
// watchdog), and the flight recorder. Instrumented modules include only
// what they use; consumers (CLI, tests) can take the whole thing.
#pragma once

#include "obs/export.h"           // IWYU pragma: export
#include "obs/flight_recorder.h"  // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/timeseries.h"       // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export
