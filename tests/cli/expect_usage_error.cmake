# Usage-error check: runs BIN with one bad FLAG (e.g. --delta=1) and
# passes only if it exits with status 2, prints nothing on stdout (the
# run never started), and names the flag in its message.
#
#   cmake -DBIN=<binary> -DFLAG=<--name=value> -P expect_usage_error.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${BIN}" "${FLAG}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
string(REGEX REPLACE "=.*" "" name "${FLAG}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${FLAG}: expected exit status 2, got ${rc}\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${FLAG}: the run started before the flag was "
                      "rejected:\n${out}")
endif()
string(FIND "${err}" "${name}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG}: message does not name ${name}:\n${err}")
endif()
