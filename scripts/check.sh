#!/usr/bin/env bash
# Tier-1 verify in both configurations, warnings-as-errors, Release example
# smoke runs, plus the standalone header self-sufficiency audit. CI's main
# job invokes this script directly (.github/workflows/ci.yml), so the two
# cannot diverge; the sanitizer jobs in CI add ASan/UBSan/TSan configs on
# top of this.
set -euo pipefail

cd "$(dirname "$0")/.."

for config in Debug Release; do
  build_dir="build-${config,,}"
  echo "=== ${config} ==="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}" -DWITRACK_WERROR=ON
  cmake --build "${build_dir}" -j
  # The FFT kernel accuracy gate runs first and explicitly: the
  # SoA/pruned/half-spectrum kernels must match the direct DFT in this
  # exact configuration (rounding differs between -O0 and -O3 vectorized
  # code, so both matter). The general ctest run excludes it so the suite
  # runs exactly once per configuration.
  echo "=== ${config}: FFT accuracy suite ==="
  (cd "${build_dir}" && ctest -R '^test_fft$' --output-on-failure)
  # The snapshot/restore parity suite also runs explicitly per configuration:
  # bit-identical resume depends on doubles surviving serialization verbatim,
  # which must hold under both -O0 and -O3 code generation.
  echo "=== ${config}: snapshot parity suite ==="
  (cd "${build_dir}" && ctest -R '^test_snapshot$' --output-on-failure)
  # The general run excludes the two suites above (each runs exactly once
  # per configuration) and the soak label (a dedicated CI lane owns it).
  (cd "${build_dir}" && ctest -E '^(test_fft|test_snapshot)$' -LE soak --output-on-failure -j)
done

echo "=== example smoke (Release) ==="
for example in build-release/example_*; do
  [ -x "${example}" ] || continue
  echo "--- ${example}"
  "${example}" > /dev/null
done

echo "=== witrackd smoke (Release) ==="
scripts/smoke_witrackd.sh build-release

echo "=== hardware fault campaign (Release) ==="
# WITRACK_HW_FAULTS arms every SimSource in the process with an
# identically-seeded hw::FaultInjector, so the bit-parity suites re-prove
# their contracts on degraded hardware: host/standalone, serial/WorkerPool
# per-RX fan-out and snapshot/restore outputs must stay bit-identical with
# faults active (app stages always run on the engine thread), and
# test_faults keeps the exact injector<->QualityStats accounting. The full
# sweep (more campaigns, heavier rates) runs in CI's fault-matrix lane; this
# is its one-campaign smoke.
(cd build-release &&
  WITRACK_HW_FAULTS="dropout=0.03,saturation=0.05,sweep_drop=0.02,seed=2026" \
  ctest -R '^(test_faults|test_fleet|test_snapshot)$' --output-on-failure)

echo "=== header self-sufficiency ==="
fails=0
while IFS= read -r header; do
  if ! echo "#include \"${header}\"" |
      g++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc -Ibench -x c++ -; then
    echo "not self-sufficient: ${header}"
    fails=$((fails + 1))
  fi
done < <(find src bench -name "*.hpp" | sort)
[ "${fails}" -eq 0 ]

echo "All checks passed."
