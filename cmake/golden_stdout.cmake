# Golden-output check: run a deterministic program and require its stdout
# to match a committed golden file byte for byte. Invoked by CTest as
#   cmake -DEXE=<binary> -DGOLDEN=<file> -DWORKDIR=<scratch> -P golden_stdout.cmake

if(NOT DEFINED EXE OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "EXE, GOLDEN and WORKDIR must be defined")
endif()
get_filename_component(name ${EXE} NAME)
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${EXE}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} failed (${rc}):\n${out}\n${err}")
endif()

file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  file(WRITE ${WORKDIR}/${name}.out "${out}")
  message(FATAL_ERROR "${name} output differs from ${GOLDEN}; "
                      "got ${WORKDIR}/${name}.out:\n${out}")
endif()

message(STATUS "${name} matches ${GOLDEN}")
