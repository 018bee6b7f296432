# Runs a command line and asserts on its exit code and output.
#
#   cmake -DCMD="<prog> <args...>" -DEXPECT_RC=<n> [-DEXPECT_OUTPUT=<substr>]
#         [-DEXPECT_OUTPUTS=<substr>|<substr>|...] -P expect_exit.cmake
#
# EXPECT_OUTPUT is a literal substring searched for in stdout+stderr (no
# regex, so usage strings with brackets compare verbatim); EXPECT_OUTPUTS
# requires several at once, '|'-separated. The CLI exit-code
# contract under test: 0 ok, 1 verification/recovery failure, 2 invalid
# input or usage, 3 internal error.
separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(
  COMMAND ${cmd_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
    "expected exit code ${EXPECT_RC}, got ${rc}\n--- command: ${CMD}\n"
    "--- stdout:\n${out}\n--- stderr:\n${err}")
endif()

if(DEFINED EXPECT_OUTPUT)
  string(FIND "${out}${err}" "${EXPECT_OUTPUT}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "output does not contain \"${EXPECT_OUTPUT}\"\n--- command: ${CMD}\n"
      "--- stdout:\n${out}\n--- stderr:\n${err}")
  endif()
endif()

if(DEFINED EXPECT_OUTPUTS)
  string(REPLACE "|" ";" expect_list "${EXPECT_OUTPUTS}")
  foreach(needle IN LISTS expect_list)
    string(FIND "${out}${err}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR
        "output does not contain \"${needle}\"\n--- command: ${CMD}\n"
        "--- stdout:\n${out}\n--- stderr:\n${err}")
    endif()
  endforeach()
endif()
