# Runs TOOL with one FLAG in an empty WORKDIR and passes only when the
# tool exits with status 1, prints EXPECT on stderr and leaves no
# flight.*.json dump behind.
#   cmake -DTOOL=... -DFLAG=... -DEXPECT=... -DWORKDIR=... -P expect_failure.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${TOOL}" "${FLAG}"
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${TOOL} ${FLAG}: exit '${rc}', want 1\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${FLAG}: stderr lacks '${EXPECT}'\n${err}")
endif()
file(GLOB dumps "${WORKDIR}/flight.*.json")
if(dumps)
  message(FATAL_ERROR "${TOOL} ${FLAG}: left ${dumps}")
endif()
