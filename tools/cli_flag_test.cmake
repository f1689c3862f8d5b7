# CLI flag test driven by CTest: runs `${CLI} ${ARGS}` (ARGS is one
# space-separated string) and requires the usage exit code 2 with
# "unknown flag --${FLAG}" on stderr. Each subcommand takes only its own
# flags, so FLAG is one that another subcommand accepts. When OUT is set
# it names the file the command would write: the rejected run must not
# create it, since flags are parsed before any work starts.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED OUT)
  file(REMOVE ${OUT})
endif()

execute_process(
  COMMAND ${CLI} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected usage exit 2, got ${rc} (${ARGS}):\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "unknown flag --${FLAG}\n")
  message(FATAL_ERROR "--${FLAG} not reported as unknown (${ARGS}):\n${err}")
endif()
if(DEFINED OUT AND EXISTS ${OUT})
  file(REMOVE ${OUT})
  message(FATAL_ERROR "rejected run wrote ${OUT} (${ARGS})")
endif()
