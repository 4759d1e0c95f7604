# Runs `FIGURES --out OUT` and compares OUT with RECORD file by file. Fails,
# naming each file, on any that differs, that the driver did not produce, or
# that it produced but the record lacks.
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${FIGURES}" --out "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "figures --out ${OUT} failed: ${rc}")
endif()

file(GLOB recorded RELATIVE "${RECORD}" "${RECORD}/*")
file(GLOB produced RELATIVE "${OUT}" "${OUT}/*")
set(bad "")
foreach(f IN LISTS recorded)
  if(NOT EXISTS "${OUT}/${f}")
    string(APPEND bad "\n  not produced: ${f}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${RECORD}/${f}" "${OUT}/${f}"
                  RESULT_VARIABLE differs)
  if(differs)
    string(APPEND bad "\n  differs: ${f}")
  endif()
endforeach()
foreach(f IN LISTS produced)
  if(NOT EXISTS "${RECORD}/${f}")
    string(APPEND bad "\n  not in the record: ${f}")
  endif()
endforeach()
if(bad)
  message(FATAL_ERROR "figures in ${OUT} do not match ${RECORD}:${bad}\n"
                      "(regenerate with: figures --out results)")
endif()
