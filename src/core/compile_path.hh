/**
 * @file
 * Runtime selection of the compile-path implementations. The
 * streaming paths introduced by the scale rework (windowed pattern
 * build, segment-emitting list scheduler) are the defaults; the
 * original monolithic paths stay alive as the differential oracle
 * and are selected either per process via this config, via the
 * DCMBQC_COMPILE_REFERENCE=1 environment variable, or as the build
 * default with -DDCMBQC_COMPILE_REFERENCE=ON (which defines the
 * macro of the same name). Mirrors the
 * `ScalarStabilizerSim` / DCMBQC_SIM_REFERENCE pattern of
 * sim/kernel_config.hh.
 *
 * Every pair of paths is bit-identical by contract — same schedules,
 * same partitions, same serialized artifacts for any window size —
 * which is what tests/test_streaming.cc pins. Worker counts need no
 * switch: the parallel kernels take a worker count, and one worker
 * is their sequential oracle. The config exists so one binary can
 * run both sides of that equivalence.
 */

#ifndef DCMBQC_CORE_COMPILE_PATH_HH
#define DCMBQC_CORE_COMPILE_PATH_HH

namespace dcmbqc
{

/**
 * Process-wide compile-path switches. Mutated only by tests and
 * benches (single-threaded setup); the passes read it at pass entry,
 * so toggling mid-compile is undefined.
 */
struct CompilePathConfig
{
    /**
     * Stream-entry requests (and Circuit requests compiled with a
     * nonzero window) lower through the windowed
     * StreamingPatternBuilder; false materializes the circuit and
     * runs the monolithic Transpile + PatternBuild oracle instead.
     */
    bool streamingFrontEnd;

    /**
     * listSchedule runs the segment-emitting streaming core; false
     * runs the original monolithic slot loop (listScheduleReference).
     */
    bool streamingScheduler;
};

/**
 * The mutable process-wide config. Defaults follow the build mode,
 * then DCMBQC_COMPILE_REFERENCE=1 in the environment flips every
 * switch to the reference side (read once, on first use).
 */
CompilePathConfig &compilePathConfig();

/** Reset to the process defaults (test teardown helper). */
void resetCompilePathConfig();

} // namespace dcmbqc

#endif // DCMBQC_CORE_COMPILE_PATH_HH
