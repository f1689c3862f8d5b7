# CLI smoke test driven by CTest: gen -> query (+topk) -> skyband, which
# must print the rows of query --k; a flag the subcommand does not take
# must fail the run.
set(DATA "${WORK_DIR}/cli_smoke.csv")

execute_process(
  COMMAND ${CLI} gen --dist anti --n 3000 --dim 4 --seed 7 --out ${DATA}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed: ${rc}")
endif()

execute_process(
  COMMAND ${CLI} query --in ${DATA} --scheme zdg --groups 6 --metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query failed: ${rc}\n${err}")
endif()
if(NOT out MATCHES "skyline rows")
  message(FATAL_ERROR "query output missing skyline rows:\n${out}")
endif()
if(NOT err MATCHES "candidates")
  message(FATAL_ERROR "metrics output missing:\n${err}")
endif()

execute_process(
  COMMAND ${CLI} query --in ${DATA} --topk 3 --json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "topk query failed: ${rc}\n${err}")
endif()
if(NOT out MATCHES "top-3")
  message(FATAL_ERROR "topk output missing:\n${out}")
endif()
if(NOT err MATCHES "\"sim_total_ms\"")
  message(FATAL_ERROR "json output missing:\n${err}")
endif()

execute_process(
  COMMAND ${CLI} skyband --in ${DATA} --k 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "skyband failed: ${rc}")
endif()
if(NOT out MATCHES "2-skyband rows")
  message(FATAL_ERROR "skyband output missing:\n${out}")
endif()

# `skyband --k 2` is `query --k 2`: the same row ids under each header.
execute_process(
  COMMAND ${CLI} query --in ${DATA} --k 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE query_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query --k 2 failed: ${rc}")
endif()
string(FIND "${out}" "\n" band_eol)
string(SUBSTRING "${out}" ${band_eol} -1 band_rows)
string(FIND "${query_out}" "\n" query_eol)
string(SUBSTRING "${query_out}" ${query_eol} -1 query_rows)
if(NOT band_rows STREQUAL query_rows)
  message(FATAL_ERROR "skyband --k 2 and query --k 2 rows differ:\n"
                      "${out}\nvs\n${query_out}")
endif()

# Unknown flags are usage errors, never silently ignored: a misspelled
# flag with a value, and an unknown flag followed by a known one (which
# must not swallow it as a value), both exit non-zero before any work.
foreach(bad_args
        "query;--in;${DATA};--budjet;5"
        "serve;--in;${DATA};--adaptive;--repeat;2")
  execute_process(
    COMMAND ${CLI} ${bad_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "unknown flag accepted (${bad_args}):\n${out}")
  endif()
  if(NOT err MATCHES "unknown flag")
    message(FATAL_ERROR "unknown flag not reported (${bad_args}):\n${err}")
  endif()
endforeach()

file(REMOVE ${DATA})
message(STATUS "cli smoke test passed")
