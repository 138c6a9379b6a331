# Runs one paper bench and byte-compares its stdout with a committed golden.
#
#   cmake -DBENCH=<bin> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout.cmake
#
# VP_SCALE comes from the test's environment; VP_SEED and VP_GEN_ASES are
# cleared so a caller's shell cannot move the scenario under the golden.
# With VP_UPDATE_GOLDEN=1 the run rewrites the golden instead (explain why
# in the commit: a moved golden means moved paper numbers).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=VP_SEED --unset=VP_GEN_ASES
          ${BENCH}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

if(DEFINED ENV{VP_UPDATE_GOLDEN})
  file(WRITE ${GOLDEN} "${out}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  file(WRITE ${ACTUAL} "${out}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL})
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} "
                      "(actual output: ${ACTUAL})")
endif()
