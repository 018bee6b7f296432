# Runs one command line under each OMP_NUM_THREADS value in THREADS and
# requires exit code 0 and the same stdout from every run.
#
#   cmake -DCMD="<prog> <args...>" -DTHREADS=1,4
#         -P expect_thread_invariant.cmake
#
# The host GEMM splits its row panels across OMP_NUM_THREADS pool workers;
# the split must not change a single output byte. "host time:" lines are
# wall-clock and are dropped before the comparison.
separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
string(REPLACE "," ";" thread_list "${THREADS}")
set(reference "")
foreach(threads IN LISTS thread_list)
  set(ENV{OMP_NUM_THREADS} "${threads}")
  execute_process(
    COMMAND ${cmd_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR
      "expected exit code 0, got ${rc} with OMP_NUM_THREADS=${threads}\n"
      "--- command: ${CMD}\n--- stdout:\n${out}\n--- stderr:\n${err}")
  endif()
  string(REGEX REPLACE "host time:[^\n]*\n" "" out "${out}")
  if(reference STREQUAL "")
    set(reference "${out}")
    set(reference_threads "${threads}")
  elseif(NOT out STREQUAL reference)
    message(FATAL_ERROR
      "stdout differs between OMP_NUM_THREADS=${reference_threads} and "
      "${threads}\n--- command: ${CMD}\n"
      "--- stdout (${reference_threads}):\n${reference}\n"
      "--- stdout (${threads}):\n${out}")
  endif()
endforeach()
