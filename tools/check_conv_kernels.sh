#!/bin/sh
# Checks that the convolution kernels in a compiled src/nn/conv.cpp are
# still vectorized: each must be its own function symbol (the compiler did
# not inline it into Conv2d::forward or Conv2d::backward) whose body holds
# packed float multiplies (mulps). GCC 12 stops vectorizing some of them
# once inlined, and nothing else would notice until training slowed down.
#
#   tools/check_conv_kernels.sh [build/CMakeFiles/fedsz.dir/src/nn/conv.cpp.o]
#
# Meant for an optimized x86-64 GCC build; exits 1 naming each kernel that
# fails.
set -eu

object=${1:-build/CMakeFiles/fedsz.dir/src/nn/conv.cpp.o}
kernels="forward_blocked<false> forward_blocked<true> forward_pointwise
input_grad_pointwise weight_grad_pointwise weight_grad_dense
backward_depthwise input_grad_rows backward_sparse"

listing=$(objdump -dC --no-show-raw-insn "$object")
failed=0
for kernel in $kernels; do
  # Every symbol named ...::<kernel>(...), except the cold split-off parts
  # of a function: "<symbols> <packed multiplies>".
  counts=$(printf '%s\n' "$listing" | awk -v name="::$kernel(" '
    /^[0-9a-f]+ <.*>:$/ {
      inside = index($0, name) > 0 && index($0, "[clone .cold]") == 0
      symbols += inside
      next
    }
    inside && /mulps/ { multiplies++ }
    END { print symbols + 0, multiplies + 0 }')
  symbols=${counts% *}
  multiplies=${counts#* }
  if [ "$symbols" -eq 0 ]; then
    echo "FAIL: $kernel is not its own symbol in $object (inlined?)"
    failed=1
  elif [ "$multiplies" -eq 0 ]; then
    echo "FAIL: $kernel has no packed float multiplies (mulps)"
    failed=1
  else
    echo "ok: $kernel ($multiplies mulps)"
  fi
done
exit "$failed"
