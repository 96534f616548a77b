// Machine-readable contract annotations for the invariants the engine's
// optimisations rest on (and that PRs 2-9 argued only in prose).
//
// Every greedy decision must be a pure function of (candidate order, exact
// distances): that is what makes the chunked / parallel builds
// bit-identical to the serial naive reference. The property tests and the
// sanitizer CI legs enforce that contract *dynamically*; these macros make
// it *static*. Each annotation names one invariant class, and
// scripts/lint/gsp_lint.py carries one checker per annotation (plus two
// global checks), run at zero findings by the static-analysis CI job.
//
//   GSP_HOT_PATH       The function runs inside the per-candidate /
//                      per-edge inner loops of a warm build. No heap
//                      allocation (new / malloc / make_unique /
//                      make_shared) and no std::stable_sort-class
//                      temporary-buffer algorithms in its body. Warm
//                      buffers follow the resize-not-shrink idiom, whose
//                      steady state allocates nothing.
//                      [checker: gsp-hot-path-alloc]
//
//   GSP_DECISION_PURE  The function's result feeds a greedy decision, so
//                      it must be a deterministic function of its inputs
//                      on every backend, schedule, and run: no
//                      FP-contraction-sensitive math (see GSP_NO_FMA
//                      below), no iteration over unordered containers, no
//                      pointer-keyed ordering (addresses differ across
//                      runs), no rand/time/address-based seeding.
//                      [checkers: gsp-decision-pure, gsp-no-fma]
//
//   GSP_SERIAL_ONLY    The function mutates state owned by the serialized
//                      insertion loop (sketch records, session buffers)
//                      and must never be reached from a ThreadPool task
//                      body.
//                      [checker: gsp-serial-only]
//
//   GSP_EPOCH_GUARDED  The field is epoch- or scope-tagged: its raw value
//                      is meaningless without the tag check its accessor
//                      performs (BoundSketch::lower_bound_at). Readable
//                      only inside the declaring class's own translation
//                      units; everyone else goes through the checked
//                      accessors.
//                      [checker: gsp-epoch-guarded]
//
// Under clang (and libclang, which is how gsp_lint.py's clang engine sees
// the code) the macros expand to annotate attributes so cursor walks can
// find them; under gcc they expand to nothing. The linter's textual engine
// keys on the macro tokens themselves, so annotations cost nothing at
// runtime on every compiler.
#pragma once

#if defined(__clang__) || defined(GSP_LINT)
#define GSP_ANNOTATE(tag) __attribute__((annotate(tag)))
#else
#define GSP_ANNOTATE(tag)
#endif

#define GSP_HOT_PATH GSP_ANNOTATE("gsp::hot_path")
#define GSP_DECISION_PURE GSP_ANNOTATE("gsp::decision_pure")
#define GSP_SERIAL_ONLY GSP_ANNOTATE("gsp::serial_only")
#define GSP_EPOCH_GUARDED GSP_ANNOTATE("gsp::epoch_guarded")
