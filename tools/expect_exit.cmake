# Runs a command and fails unless it exits with EXIT_CODE:
#   cmake -DEXIT_CODE=<n> -P expect_exit.cmake -- <program> [args...]
# Everything after "--" is the command; cmake leaves it unparsed.
set(command "")
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "'${command}' exited with ${rc}, want ${EXIT_CODE}")
endif()
