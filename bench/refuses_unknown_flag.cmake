# ctest driver: runs BENCH with a flag it does not read and passes only if
# the bench exits non-zero, names the flag on stderr and wrote nothing to
# stdout, i.e. refused before measuring anything. The exit code alone would
# not do: a bench can also exit 1 from a failed gate after a full run.
#
#   cmake -DBENCH=<binary> -DFLAG=--no-such-flag -P refuses_unknown_flag.cmake
execute_process(COMMAND "${BENCH}" --quick "${FLAG}"
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${FLAG}: exited 0")
endif()
if(NOT err MATCHES "unknown flag ${FLAG}")
  message(FATAL_ERROR "${BENCH} ${FLAG}: stderr does not name the flag: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BENCH} ${FLAG}: printed before refusing: ${out}")
endif()
